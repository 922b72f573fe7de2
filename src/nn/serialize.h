// Binary (de)serialisation of module parameters, so trained imputers can be
// checkpointed and reloaded by examples and benches.
#pragma once

#include <iosfwd>
#include <string>

#include "nn/module.h"

namespace fmnet::nn {

/// Writes all parameters of `module` to `path` (magic + per-tensor shape +
/// float data, little-endian host order). Throws CheckError on I/O failure.
void save_parameters(const Module& module, const std::string& path);

/// Loads parameters saved by save_parameters into `module`. The module must
/// have identical architecture: tensor count and shapes are verified, all
/// before any weight is written, so on a CheckError (which names the first
/// mismatching tensor, its expected and its found shape) the module is
/// unchanged.
void load_parameters(Module& module, const std::string& path);

/// Stream variants of the same format, used by the engine's artifact store
/// to checkpoint trained models under content-addressed keys.
void save_parameters(const Module& module, std::ostream& out);
void load_parameters(Module& module, std::istream& in);

}  // namespace fmnet::nn
