// The traced binary: replaces the global operator new/delete family with
// malloc-backed versions that count allocations while counting is enabled.

#include <atomic>
#include <cstdlib>
#include <new>

#include "proc.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  std::size_t align = std::max(static_cast<std::size_t>(al), sizeof(void*));
  std::size_t size = (n + align - 1) / align * align;
  return std::aligned_alloc(align, size == 0 ? align : size);
}

}  // namespace

namespace servebench::alloc {

bool Available() { return true; }
void Enable(bool on) { g_counting.store(on, std::memory_order_relaxed); }
uint64_t Count() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace servebench::alloc

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = CountedAlignedAlloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = CountedAlignedAlloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
