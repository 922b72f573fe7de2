// Debug rendering of smtlite models in an SMT-LIB-flavoured text form.
#pragma once

#include <string>

#include "smt/model.h"

namespace fmnet::smt {

/// Renders variable declarations, constraints, clauses and the objective of
/// a Model; intended for logging and test diagnostics, not for parsing.
std::string to_smtlib(const Model& model);

/// Content address of a model's constraint system, the repair-cache key
/// (solve_cache.h): 32 hex digits of a 128-bit digest. Each constraint and
/// clause gets its own digest with its terms or literals sorted; the
/// sorted digests are folded with the variable bounds and the objective.
/// Two models get the same key iff they pose the same problem to the
/// solver (up to digest collisions, negligible at 128 bits): variable
/// *names* and the order of constraints, clauses, terms and literals do
/// not enter it. That is safe because bounds-consistency fixpoints, and
/// therefore the canonical extraction assignment, depend only on the
/// constraint set over (domains, objective), never on declaration order.
std::string repair_key(const Model& model);

}  // namespace fmnet::smt
