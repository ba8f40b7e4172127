// Empirical evaluation (paper §4.2, Eq. 2): run the controller in the
// simulated system, check each rollout trace against each specification
// under finite-trace (LTLf) semantics, and report
//     P_Φ = (# sequences satisfying Φ) / (total # sequences)
// per specification — the quantity Figure 11 plots before/after
// fine-tuning.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driving/domain.hpp"
#include "modelcheck/checker.hpp"
#include "sim/simulator.hpp"

namespace dpoaf::sim {

using modelcheck::NamedSpec;

struct SpecSatisfaction {
  std::string spec_name;
  double probability = 0.0;  // P_Φ
};

struct EmpiricalReport {
  std::vector<SpecSatisfaction> per_spec;
  int rollouts = 0;
  /// Rollouts that produced an *empty* trace. These carry no step to
  /// evaluate, so they are excluded from every per-spec denominator
  /// instead of silently counting as violations; a run where every
  /// rollout is empty CHECKs (that is a simulator bug, not a 0% P_Φ).
  int skipped_traces = 0;

  [[nodiscard]] double mean_probability() const;
  [[nodiscard]] double probability_of(const std::string& spec_name) const;
};

/// Run `rollouts` simulations of `controller` and evaluate every spec on
/// every trace with the LTLf evaluator (logic::satisfaction_rate; see
/// docs/VERIFICATION.md).
EmpiricalReport empirical_evaluation(const Simulator& simulator,
                                     const FsaController& controller,
                                     const std::vector<NamedSpec>& specs,
                                     int rollouts, Rng& rng);

/// One row of the registry-wide sweep below.
struct ScenarioSweepEntry {
  std::string scenario_key;
  bool generated = false;
  bool holdout = false;
  EmpiricalReport report;
};

/// Empirical evaluation across the *whole* scenario registry — generated
/// scenarios included: for every scenario, synthesize the reference
/// controller (the canonical compliant variant of the scenario's first
/// catalog task), simulate it under the scenario's own perception-noise
/// level (the grammar's noise axis; env propositions only), and evaluate
/// the rollouts against the scenario's own rulebook. Deterministic per
/// seed: one child Rng per scenario, split in registry order.
/// `base.perception_noise` and `base.noise_mask`/`epsilon_label` are
/// overridden per scenario; the other fields pass through.
std::vector<ScenarioSweepEntry> empirical_scenario_sweep(
    const driving::DrivingDomain& domain, int rollouts, std::uint64_t seed,
    SimulatorConfig base = {});

}  // namespace dpoaf::sim
