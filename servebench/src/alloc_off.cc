// The untraced binary: the global operator new is the library's own, so the
// end-to-end numbers never pay for allocation counting.

#include "proc.h"

namespace servebench::alloc {

bool Available() { return false; }
void Enable(bool) {}
uint64_t Count() { return 0; }

}  // namespace servebench::alloc
