#pragma once

#include <memory>
#include <string>

#include "core/selnet_ct.h"
#include "util/status.h"

/// \file model_io.h
/// \brief Whole-model persistence for SelNet-ct: hyper-parameters + weights
/// in one self-describing file, so a trained estimator can be shipped and
/// served without the training workload.
///
/// Format: magic "SELM", u32 version, the SelNetConfig fields in declaration
/// order, then the parameter matrices in Params() order (u64 rows, u64 cols,
/// float data, and — since v2 — a u32 CRC-32 per parameter; see
/// nn/serialize.h). Version 1 files still load.
///
/// The byte-buffer variants exist for state transfer between serving
/// processes: the SAME encoding that lands on disk travels over the wire, so
/// a shard restored from a transfer serves bit-identical answers to one
/// restored from a file.

namespace selnet::core {

/// \brief Write `model` (config + parameters) to `path`.
util::Status SaveModel(const SelNetCt& model, const std::string& path);

/// \brief Reconstruct a model from `path`; ready for Predict immediately.
/// The model is built straight from the file: its parameters start zero and
/// are overwritten, so no init draws are made and its rng starts at the
/// constructor seed (that state only feeds further training of this model).
util::Result<std::unique_ptr<SelNetCt>> LoadModel(const std::string& path);

/// \brief SaveModel into a memory buffer (exact file-format bytes).
util::Result<std::string> SaveModelBytes(const SelNetCt& model);

/// \brief LoadModel from a memory buffer previously produced by
/// SaveModelBytes (or read from a SaveModel file). `origin` names the byte
/// source in error messages ("state transfer from shard-b", a path, …).
util::Result<std::unique_ptr<SelNetCt>> LoadModelBytes(
    const std::string& bytes, const std::string& origin);

}  // namespace selnet::core
