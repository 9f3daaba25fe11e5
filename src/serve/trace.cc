#include "serve/trace.h"

#include "serve/wire.h"

namespace selnet::serve {

const char* StageName(Stage s) {
  switch (s) {
    case Stage::kDecode: return "decode";
    case Stage::kRoute: return "route";
    case Stage::kQueue: return "queue";
    case Stage::kPredict: return "predict";
    case Stage::kEncode: return "encode";
    case Stage::kRemoteQueue: return "remote_queue";
    case Stage::kRemotePredict: return "remote_predict";
    case Stage::kRemoteWire: return "remote_wire";
  }
  return "unknown";
}

std::string SpanRecord::ToJson() const {
  JsonWriter w;
  w.Field("route", route);
  if (tag != 0) w.Field("tag", tag);
  w.Field("total_ms", total_ms);
  for (size_t i = 0; i < kNumStages; ++i) {
    w.Field(std::string(StageName(Stage(i))) + "_ms", stage_ms[i]);
  }
  return w.Finish();
}

}  // namespace selnet::serve
