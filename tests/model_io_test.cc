#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <sys/resource.h>
#include <unistd.h>

#include "core/model_io.h"
#include "data/synthetic.h"
#include "nn/serialize.h"
#include "util/csv.h"

namespace selnet::core {
namespace {

using tensor::Matrix;

class ModelIoFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticSpec spec;
    spec.n = 600;
    spec.dim = 6;
    db_ = std::make_unique<data::Database>(data::GenerateMixture(spec),
                                           data::Metric::kEuclidean);
    data::WorkloadSpec wspec;
    wspec.num_queries = 25;
    wspec.w = 6;
    wspec.max_sel_fraction = 0.2;
    wl_ = data::GenerateWorkload(*db_, wspec);
    ctx_.db = db_.get();
    ctx_.workload = &wl_;
    ctx_.epochs = 8;
    cfg_.input_dim = 6;
    cfg_.tmax = wl_.tmax;
    cfg_.num_control = 6;
    cfg_.latent_dim = 3;
    cfg_.ae_hidden = 16;
    cfg_.tau_hidden = 20;
    cfg_.p_hidden = 24;
    cfg_.embed_h = 5;
    cfg_.ae_pretrain_epochs = 2;
  }
  std::unique_ptr<data::Database> db_;
  data::Workload wl_;
  eval::TrainContext ctx_;
  SelNetConfig cfg_;
};

TEST_F(ModelIoFixture, SaveLoadRoundTripPredictionsIdentical) {
  SelNetCt model(cfg_);
  model.Fit(ctx_);
  std::string path = ::testing::TempDir() + "/model.selm";
  ASSERT_TRUE(SaveModel(model, path).ok());

  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  SelNetCt* restored = loaded.ValueOrDie().get();
  EXPECT_EQ(restored->config().num_control, cfg_.num_control);
  EXPECT_FLOAT_EQ(restored->config().tmax, cfg_.tmax);

  data::Batch b = data::MaterializeAll(wl_.queries, wl_.test);
  Matrix ya = model.Predict(b.x, b.t);
  Matrix yb = restored->Predict(b.x, b.t);
  for (size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya.data()[i], yb.data()[i]);
  }
  std::remove(path.c_str());
}

TEST_F(ModelIoFixture, LoadedModelIsConsistent) {
  SelNetCt model(cfg_);
  model.Fit(ctx_);
  std::string path = ::testing::TempDir() + "/model2.selm";
  ASSERT_TRUE(SaveModel(model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  SelNetCt* restored = loaded.ValueOrDie().get();
  Matrix x(20, 6), t(20, 1);
  for (size_t i = 0; i < 20; ++i) {
    std::copy(wl_.queries.row(0), wl_.queries.row(0) + 6, x.row(i));
    t(i, 0) = wl_.tmax * static_cast<float>(i) / 19.0f;
  }
  Matrix yhat = restored->Predict(x, t);
  for (size_t i = 1; i < 20; ++i) {
    EXPECT_GE(yhat(i, 0) + 1e-3f, yhat(i - 1, 0));
  }
  std::remove(path.c_str());
}

TEST_F(ModelIoFixture, MissingFileIsError) {
  auto loaded = LoadModel("/nonexistent/model.selm");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIoError);
}

TEST_F(ModelIoFixture, CorruptMagicRejected) {
  std::string path = ::testing::TempDir() + "/corrupt.selm";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("JUNKJUNK", 1, 8, f);
  std::fclose(f);
  auto loaded = LoadModel(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(ModelIoFixture, InvalidConfigRejectedNotAborted) {
  SelNetCt model(cfg_);
  auto bytes = SaveModelBytes(model);
  ASSERT_TRUE(bytes.ok());
  // input_dim is the first config field, right after magic + version.
  std::string zero_dim = bytes.ValueOrDie();
  std::memset(&zero_dim[8], 0, sizeof(uint64_t));
  auto loaded = LoadModelBytes(zero_dim, "zero-dim buffer");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("invalid config"),
            std::string::npos)
      << loaded.status().ToString();
}

// A config whose dimensions imply more parameters than the payload can
// hold is a typed rejection before anything is allocated: a hostile header
// must not make the loader zero-fill terabytes. The config's fields follow
// magic + version (8 bytes) as u64s: input_dim at 8, p_hidden at 48.
TEST_F(ModelIoFixture, HugeConfigDimensionsRejectedBeforeAllocation) {
  SelNetCt model(cfg_);
  auto bytes = SaveModelBytes(model);
  ASSERT_TRUE(bytes.ok());
  struct Case {
    const char* field;
    size_t offset;
    uint64_t value;
  };
  const Case cases[] = {{"input_dim", 8, uint64_t{1} << 40},
                        {"p_hidden", 48, uint64_t{1} << 31}};
  for (const Case& c : cases) {
    std::string hostile = bytes.ValueOrDie();
    std::memcpy(&hostile[c.offset], &c.value, sizeof(c.value));
    struct rusage before {};
    ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
    auto loaded = LoadModelBytes(hostile, "hostile buffer");
    struct rusage after {};
    ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
    ASSERT_FALSE(loaded.ok()) << c.field;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
        << c.field << ": " << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("invalid config"),
              std::string::npos)
        << loaded.status().ToString();
    // ru_maxrss is in KiB on Linux.
    EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 16 * 1024) << c.field;
  }
}

// The loader's bound counts the architecture without building it; it must
// equal what the constructor builds, or the bound drifts from the model.
TEST_F(ModelIoFixture, ParamFloatsMatchesBuiltModel) {
  SelNetConfig wide = cfg_;
  wide.input_dim = 129;
  wide.latent_dim = 7;
  wide.num_control = 1;
  wide.embed_h = 33;
  SelNetConfig defaults;
  defaults.input_dim = 24;
  for (const SelNetConfig& cfg : {cfg_, wide, defaults}) {
    SelNetCt model(cfg);
    uint64_t built = 0;
    for (const ag::Var& p : model.Params()) built += p->value.size();
    uint64_t counted = 0;
    ASSERT_TRUE(SelNetCt::ParamFloats(cfg, &counted)) << cfg.input_dim;
    EXPECT_EQ(counted, built) << cfg.input_dim;
  }
  SelNetConfig overflow = cfg_;
  overflow.p_hidden = uint64_t{1} << 33;
  uint64_t counted = 0;
  EXPECT_FALSE(SelNetCt::ParamFloats(overflow, &counted));
}

TEST_F(ModelIoFixture, TruncatedFileRejected) {
  SelNetCt model(cfg_);
  std::string path = ::testing::TempDir() + "/trunc.selm";
  ASSERT_TRUE(SaveModel(model, path).ok());
  // Truncate to half size.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  auto loaded = LoadModel(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST_F(ModelIoFixture, FlippedParameterByteFailsWithOffset) {
  SelNetCt model(cfg_);
  std::string path = ::testing::TempDir() + "/flip.selm";
  ASSERT_TRUE(SaveModel(model, path).ok());
  // Flip one bit near the end of the file — inside the last parameter's
  // data or its CRC; either way the checksum check must localize it.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, -6, SEEK_END), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(c ^ 0x10, f);
  std::fclose(f);
  auto loaded = LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("byte offset"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST_F(ModelIoFixture, ByteBufferRoundTripMatchesFileFormat) {
  SelNetCt model(cfg_);
  model.Fit(ctx_);
  auto bytes = SaveModelBytes(model);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  // The in-memory encoding IS the file encoding, byte for byte — the state
  // transfer path cannot drift from what SaveModel persists.
  std::string path = ::testing::TempDir() + "/bytes.selm";
  ASSERT_TRUE(SaveModel(model, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string file_bytes(bytes.ValueOrDie().size() + 16, '\0');
  size_t n = std::fread(&file_bytes[0], 1, file_bytes.size(), f);
  std::fclose(f);
  file_bytes.resize(n);
  EXPECT_EQ(file_bytes, bytes.ValueOrDie());
  std::remove(path.c_str());

  auto restored = LoadModelBytes(bytes.ValueOrDie(), "unit test buffer");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  data::Batch b = data::MaterializeAll(wl_.queries, wl_.test);
  Matrix ya = model.Predict(b.x, b.t);
  Matrix yb = restored.ValueOrDie()->Predict(b.x, b.t);
  for (size_t i = 0; i < ya.size(); ++i) {
    // Bit-identical, not just close: failover correctness rests on this.
    EXPECT_EQ(ya.data()[i], yb.data()[i]);
  }

  // Corrupt transfer bytes are rejected with the origin named.
  std::string corrupt = bytes.ValueOrDie();
  corrupt[corrupt.size() - 6] ^= 0x04;
  auto bad = LoadModelBytes(corrupt, "unit test buffer");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("unit test buffer"),
            std::string::npos)
      << bad.status().ToString();
}

/// True when both models hold the same parameters, bit for bit.
bool SameParams(const SelNetCt& a, const SelNetCt& b) {
  std::vector<ag::Var> pa = a.Params(), pb = b.Params();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    const Matrix& ma = pa[i]->value;
    const Matrix& mb = pb[i]->value;
    if (ma.rows() != mb.rows() || ma.cols() != mb.cols() ||
        std::memcmp(ma.data(), mb.data(), ma.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

TEST_F(ModelIoFixture, NoInitLoadMatchesRandomInitReferenceBitForBit) {
  SelNetCt model(cfg_);
  model.Fit(ctx_);
  auto bytes = SaveModelBytes(model);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto loaded = LoadModelBytes(bytes.ValueOrDie(), "unit test buffer");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  SelNetCt& fast = *loaded.ValueOrDie();

  // The reference path: a randomly initialised model, then the same
  // parameter payload read over it (LoadParams -> ReadParamsPayload).
  std::string path = ::testing::TempDir() + "/reference.seln";
  ASSERT_TRUE(nn::SaveParams(model.Params(), path).ok());
  SelNetCt ref(cfg_);
  ASSERT_TRUE(nn::LoadParams(path, ref.Params()).ok());
  ref.InvalidateInferenceCache();
  std::remove(path.c_str());

  EXPECT_TRUE(SameParams(ref, fast));
  data::Batch b = data::MaterializeAll(wl_.queries, wl_.test);
  Matrix ya = ref.Predict(b.x, b.t);
  Matrix yb = fast.Predict(b.x, b.t);
  ASSERT_EQ(ya.size(), yb.size());
  for (size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya.data()[i], yb.data()[i]);
  for (size_t q = 0; q < wl_.queries.rows(); ++q) {
    std::vector<float> tau_a, p_a, tau_b, p_b;
    ASSERT_TRUE(ref.SweepCurve(wl_.queries.row(q), &tau_a, &p_a));
    ASSERT_TRUE(fast.SweepCurve(wl_.queries.row(q), &tau_b, &p_b));
    EXPECT_EQ(tau_a, tau_b) << "query " << q;
    EXPECT_EQ(p_a, p_b) << "query " << q;
  }
}

TEST_F(ModelIoFixture, TwoLoadsOfTheSameBytesRetrainIdentically) {
  SelNetCt model(cfg_);
  model.Fit(ctx_);
  auto bytes = SaveModelBytes(model);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto a = LoadModelBytes(bytes.ValueOrDie(), "first load");
  auto b = LoadModelBytes(bytes.ValueOrDie(), "second load");
  ASSERT_TRUE(a.ok() && b.ok());
  // A loaded model's rng starts at its constructor seed, so retraining two
  // loads draws the same shuffles and lands on the same weights.
  a.ValueOrDie()->IncrementalFit(ctx_, /*patience=*/2, /*max_epochs=*/3);
  b.ValueOrDie()->IncrementalFit(ctx_, /*patience=*/2, /*max_epochs=*/3);
  EXPECT_TRUE(SameParams(*a.ValueOrDie(), *b.ValueOrDie()));
  EXPECT_FALSE(SameParams(*a.ValueOrDie(), model));  // Training moved them.
}

TEST(CsvTest, EscapesSpecialCharacters) {
  EXPECT_EQ(util::CsvWriter::Escape("plain"), "plain");
  EXPECT_EQ(util::CsvWriter::Escape("a,b"), "\"a,b\"");
  EXPECT_EQ(util::CsvWriter::Escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(util::CsvWriter::Escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvTest, RendersHeaderAndRows) {
  util::CsvWriter csv({"model", "mse"});
  csv.AddRow({"SelNet", "4.95"});
  csv.AddRow({"with,comma", "1"});
  std::string s = csv.ToString();
  EXPECT_EQ(s, "model,mse\nSelNet,4.95\n\"with,comma\",1\n");
}

TEST(CsvTest, WriteFileRoundTrip) {
  util::CsvWriter csv({"a"});
  csv.AddRow({"1"});
  std::string path = ::testing::TempDir() + "/out.csv";
  ASSERT_TRUE(csv.WriteFile(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {0};
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "a\n1\n");
  std::remove(path.c_str());
}

TEST(CsvTest, WriteToBadPathIsIOError) {
  util::CsvWriter csv({"a"});
  EXPECT_EQ(csv.WriteFile("/no/such/dir/x.csv").code(),
            util::StatusCode::kIoError);
}

}  // namespace
}  // namespace selnet::core
