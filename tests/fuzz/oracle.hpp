#pragma once
// Differential oracle for one fuzz case: the same (datatype, count,
// packet size, fault plan) goes through every offloaded receive
// strategy plus the host pack/unpack baseline, and everything must
// agree — byte-identical receive buffers against the ddt::unpack
// reference (whole buffers, so stray DMA writes outside the typed
// regions are caught too), and consistent NIC metrics (unique-packet
// counts, DMA byte totals). The invariant checks (src/sim/check) are
// always on, so internal violations surface even when the final bytes
// happen to be right.
//
// A host-side three-way byte-engine differential runs first: the
// compiled flat program (dataloop/program.hpp), the Segment interpreter
// and the one-shot ddt::pack/unpack reference must produce identical
// bytes with the stream resumed at seed-derived chunk boundaries. The
// simulated strategies then alternate ReceiveConfig::pack_engine by
// seed, so both byte engines face the full strategy cross-check.

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/ddt_gen.hpp"
#include "offload/strategy.hpp"

namespace netddt::fuzz {

struct OracleOutcome {
  bool ok = true;
  std::string detail;  // first failure, human-readable
  std::uint64_t msg_bytes = 0;
  std::uint64_t packets = 0;
};

/// The receive strategies the oracle differentiates by default.
std::vector<offload::StrategyKind> oracle_strategies();

/// Run `fc` through `strategies` (plus the host baseline and the codec
/// round-trip) and cross-check everything. Never throws: simulator
/// exceptions (including check::Violation) become failures.
OracleOutcome run_oracle(const FuzzCase& fc,
                         const std::vector<offload::StrategyKind>&
                             strategies = oracle_strategies());

}  // namespace netddt::fuzz
