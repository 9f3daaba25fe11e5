#include "core/model_io.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "nn/serialize.h"

namespace selnet::core {

using util::Result;
using util::Status;

/// The one holder of SelNetCt's no-init constructor (a friend of SelNetCt).
class ModelLoader {
 public:
  static std::unique_ptr<SelNetCt> Blank(const SelNetConfig& cfg) {
    return std::unique_ptr<SelNetCt>(new SelNetCt(cfg, /*random_init=*/false));
  }
};

namespace {

constexpr char kMagic[4] = {'S', 'E', 'L', 'M'};
/// v1: no checksums. v2: per-parameter CRC-32 (see nn/serialize.h).
constexpr uint32_t kVersion = 2;
constexpr uint32_t kMinVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
bool WriteScalar(std::FILE* f, T v) {
  return std::fwrite(&v, sizeof(T), 1, f) == 1;
}

template <typename T>
bool ReadScalar(std::FILE* f, T* v) {
  return std::fread(v, sizeof(T), 1, f) == 1;
}

// The config is serialized field by field (not memcpy'd) so padding and
// future field insertions stay controlled by the version number.
bool WriteConfig(std::FILE* f, const SelNetConfig& cfg) {
  return WriteScalar<uint64_t>(f, cfg.input_dim) &&
         WriteScalar<uint64_t>(f, cfg.latent_dim) &&
         WriteScalar<uint64_t>(f, cfg.ae_hidden) &&
         WriteScalar<uint64_t>(f, cfg.num_control) &&
         WriteScalar<uint64_t>(f, cfg.tau_hidden) &&
         WriteScalar<uint64_t>(f, cfg.p_hidden) &&
         WriteScalar<uint64_t>(f, cfg.embed_h) &&
         WriteScalar<float>(f, cfg.tmax) &&
         WriteScalar<float>(f, cfg.lambda_ae) &&
         WriteScalar<float>(f, cfg.huber_delta) &&
         WriteScalar<float>(f, cfg.log_eps) &&
         WriteScalar<float>(f, cfg.lr) &&
         WriteScalar<uint64_t>(f, cfg.batch_size) &&
         WriteScalar<uint8_t>(f, cfg.query_dependent_tau ? 1 : 0) &&
         WriteScalar<uint8_t>(f, cfg.softmax_tau ? 1 : 0);
}

// Returns nullptr on success, else the name of the field whose read failed —
// surfaced in the LoadModel error Status so truncated/corrupt files are
// diagnosable.
const char* ReadConfig(std::FILE* f, SelNetConfig* cfg) {
  uint64_t u = 0;
  uint8_t b = 0;
  if (!ReadScalar(f, &u)) return "input_dim";
  cfg->input_dim = u;
  if (!ReadScalar(f, &u)) return "latent_dim";
  cfg->latent_dim = u;
  if (!ReadScalar(f, &u)) return "ae_hidden";
  cfg->ae_hidden = u;
  if (!ReadScalar(f, &u)) return "num_control";
  cfg->num_control = u;
  if (!ReadScalar(f, &u)) return "tau_hidden";
  cfg->tau_hidden = u;
  if (!ReadScalar(f, &u)) return "p_hidden";
  cfg->p_hidden = u;
  if (!ReadScalar(f, &u)) return "embed_h";
  cfg->embed_h = u;
  if (!ReadScalar(f, &cfg->tmax)) return "tmax";
  if (!ReadScalar(f, &cfg->lambda_ae)) return "lambda_ae";
  if (!ReadScalar(f, &cfg->huber_delta)) return "huber_delta";
  if (!ReadScalar(f, &cfg->log_eps)) return "log_eps";
  if (!ReadScalar(f, &cfg->lr)) return "lr";
  if (!ReadScalar(f, &u)) return "batch_size";
  cfg->batch_size = u;
  if (!ReadScalar(f, &b)) return "query_dependent_tau";
  cfg->query_dependent_tau = (b != 0);
  if (!ReadScalar(f, &b)) return "softmax_tau";
  cfg->softmax_tau = (b != 0);
  return nullptr;
}

// Bytes from the current position of `f` to its end; false if `f` cannot
// seek (the position is restored on success).
bool RemainingBytes(std::FILE* f, uint64_t* bytes) {
  long pos = std::ftell(f);
  if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0) return false;
  long end = std::ftell(f);
  if (std::fseek(f, pos, SEEK_SET) != 0 || end < pos) return false;
  *bytes = static_cast<uint64_t>(end - pos);
  return true;
}

Status SaveModelToFile(const SelNetCt& model, std::FILE* f,
                       const std::string& path) {
  if (std::fwrite(kMagic, 1, 4, f) != 4 || !WriteScalar(f, kVersion) ||
      !WriteConfig(f, model.config())) {
    return Status::IOError("short write: " + path);
  }
  return nn::WriteParamsPayload(f, model.Params(), path);
}

Result<std::unique_ptr<SelNetCt>> LoadModelFromFile(std::FILE* f,
                                                    const std::string& path) {
  char magic[4];
  uint32_t version = 0;
  if (std::fread(magic, 1, 4, f) != 4 ||
      std::memcmp(magic, kMagic, 4) != 0) {
    return Status::Invalid("model file '" + path +
                           "': bad magic (not a SaveModel file)");
  }
  if (!ReadScalar(f, &version)) {
    return Status::IOError("model file '" + path +
                           "': truncated before version field");
  }
  if (version < kMinVersion || version > kVersion) {
    return Status::Invalid("model file '" + path + "': unsupported version " +
                           std::to_string(version) + " (expected " +
                           std::to_string(kMinVersion) + ".." +
                           std::to_string(kVersion) + ")");
  }
  SelNetConfig cfg;
  if (const char* field = ReadConfig(f, &cfg)) {
    return Status::IOError("model file '" + path +
                           "': truncated config (failed reading field '" +
                           field + "')");
  }
  // The config is not checksummed and may come off the wire: reject what
  // the constructor would abort the process on, and any architecture whose
  // parameters the rest of the file cannot hold (4 bytes per float at the
  // least) before allocating a single matrix.
  if (cfg.input_dim == 0 || cfg.latent_dim == 0 || cfg.ae_hidden == 0 ||
      cfg.num_control == 0 || cfg.tau_hidden == 0 || cfg.p_hidden == 0 ||
      cfg.embed_h == 0 || !(cfg.tmax > 0.0f)) {
    return Status::Invalid("model file '" + path +
                           "': invalid config (every dimension and tmax "
                           "must be positive)");
  }
  uint64_t floats = 0, remaining = 0;
  if (!RemainingBytes(f, &remaining)) {
    return Status::IOError("model file '" + path +
                           "': cannot size the parameter payload");
  }
  bool counted = SelNetCt::ParamFloats(cfg, &floats);
  if (!counted || floats > remaining / 4) {
    std::string implied = counted ? std::to_string(floats) : "over 2^64";
    return Status::Invalid("model file '" + path +
                           "': invalid config (its dimensions imply " +
                           implied + " parameter floats, the payload holds " +
                           std::to_string(remaining) + " bytes)");
  }
  // Zero-filled, no init draws: the payload overwrites every parameter (and
  // checks the count and every shape), so random weights would be waste.
  std::unique_ptr<SelNetCt> model = ModelLoader::Blank(cfg);
  SEL_RETURN_NOT_OK(nn::ReadParamsPayload(f, model->Params(), "model file",
                                          path,
                                          /*checksummed=*/version >= 2));
  model->InvalidateInferenceCache();  // Params were overwritten wholesale.
  return model;
}

}  // namespace

Status SaveModel(const SelNetCt& model, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IOError("cannot open for write: " + path);
  return SaveModelToFile(model, f.get(), path);
}

Result<std::unique_ptr<SelNetCt>> LoadModel(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open for read: " + path);
  return LoadModelFromFile(f.get(), path);
}

Result<std::string> SaveModelBytes(const SelNetCt& model) {
  char* buf = nullptr;
  size_t len = 0;
  std::FILE* f = ::open_memstream(&buf, &len);
  if (f == nullptr) return Status::IOError("open_memstream failed");
  Status st = SaveModelToFile(model, f, "<memory>");
  std::fclose(f);  // Flushes buf/len.
  std::string bytes;
  if (buf != nullptr) {
    if (st.ok()) bytes.assign(buf, len);
    ::free(buf);
  }
  SEL_RETURN_NOT_OK(st);
  return bytes;
}

Result<std::unique_ptr<SelNetCt>> LoadModelBytes(const std::string& bytes,
                                                 const std::string& origin) {
  // fmemopen in "rb" mode never writes through the pointer; the const_cast
  // only satisfies its C signature.
  std::FILE* f = ::fmemopen(const_cast<char*>(bytes.data()), bytes.size(),
                            "rb");
  if (f == nullptr) {
    return Status::IOError("fmemopen failed for " + origin + " (" +
                           std::to_string(bytes.size()) + " bytes)");
  }
  FilePtr closer(f);
  return LoadModelFromFile(f, origin);
}

}  // namespace selnet::core
