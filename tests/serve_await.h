#pragma once

#include <exception>
#include <future>
#include <memory>
#include <utility>

#include "serve/request.h"

/// \file serve_await.h
/// \brief Blocking adapters over the serving stack's one request entry
/// point, `SubmitWith(EstimateRequest, ResponseFn)`, for the tests and the
/// bench drivers. They work for any target that has it: SelNetServer,
/// ShardedRegistry, RemoteShard.

namespace selnet::serve {

/// \brief Submit `req` to `target`; the future holds the response, or
/// rethrows the request's error from get().
template <typename Target>
std::future<EstimateResponse> SubmitAsync(Target& target, EstimateRequest req) {
  auto promise = std::make_shared<std::promise<EstimateResponse>>();
  std::future<EstimateResponse> result = promise->get_future();
  target.SubmitWith(std::move(req), [promise](EstimateResponse&& resp,
                                              std::exception_ptr error) {
    if (error) {
      promise->set_exception(error);
    } else {
      promise->set_value(std::move(resp));
    }
  });
  return result;
}

/// \brief Submit `req` to `target` and block for its response (throws the
/// request's error).
template <typename Target>
EstimateResponse Await(Target& target, EstimateRequest req) {
  return SubmitAsync(target, std::move(req)).get();
}

}  // namespace selnet::serve
