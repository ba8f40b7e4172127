// The scenario feature grammar (docs/GENERATOR.md): a generated driving
// scenario is one point in
//
//   intersection topology × signal regime × agent mix × perception-noise
//   regime
//
// drawn deterministically from a seeded Rng. The grammar only composes
// propositions from the fixed driving vocabulary (the tokenizer, aligner
// lexicon, and spec templates all key on it), so every generated world
// model, rulebook, and task phrase stays inside the language the rest of
// the pipeline already understands — the generator widens the *scenario*
// distribution, not the vocabulary.
#pragma once

#include <string>
#include <vector>

#include "automata/transition_system.hpp"
#include "logic/ltl.hpp"
#include "logic/vocabulary.hpp"
#include "util/rng.hpp"

namespace dpoaf::driving::generator {

using automata::TransitionSystem;
using logic::Ltl;
using logic::Vocabulary;

/// What controls the conflict point the manoeuvre crosses.
enum class Topology {
  Signalized,      // signal head governs the intersection
  StopControlled,  // stop sign (the sign proposition is forced true)
  Roundabout,      // yield-on-entry circular junction
  MedianCrossing,  // unsignalized gap across a wide median
  Uncontrolled,    // open intersection, right-of-way by observation only
};

/// Which lamps the signal head carries (None for every unsignalized
/// topology). The regimes mirror the paper's two signalized figures:
/// Standard is Fig. 5's single green ball, FullHead is Fig. 15's
/// green-ball + protected/permissive left-turn arrow head.
enum class SignalRegime {
  None,
  Standard,        // green_traffic_light only
  ProtectedLeft,   // green ball + green left-turn arrow
  PermissiveLeft,  // green ball + flashing left-turn arrow
  FullHead,        // green ball + both arrow aspects (one lit at a time)
};

/// How jittery one perception step is: the maximum number of propositions
/// Algorithm 1 lets flip per transition, and the simulator's observation
/// flip probability.
enum class NoiseRegime {
  Calm,     // ≤ 1 proposition changes per step, near-perfect perception
  Nominal,  // ≤ 2 (the paper's setting), small observation noise
};

std::string topology_name(Topology t);
std::string signal_name(SignalRegime s);
std::string noise_name(NoiseRegime n);

/// One grammar sample. `agents` holds agent-proposition names (subset of
/// the six car/pedestrian propositions, in fixed vocabulary order);
/// `action`/`wrong_action` are action-proposition names.
struct ScenarioFeatures {
  Topology topology = Topology::Uncontrolled;
  SignalRegime signal = SignalRegime::None;
  NoiseRegime noise = NoiseRegime::Nominal;
  std::vector<std::string> agents;
  std::string action;
  std::string wrong_action;
};

/// Draw one feature tuple. Consumes a fixed number of draws per axis in a
/// fixed order, so a given Rng state maps to exactly one feature tuple
/// (the seeding/determinism contract in docs/GENERATOR.md). The drawn
/// manoeuvre is guaranteed to be *constrained*: at least one agent in the
/// mix (or the signal itself) forbids it somewhere, so the compliant and
/// reckless responses are always separable by verification.
ScenarioFeatures draw_features(Rng& rng);

/// Signal-head proposition names of a regime (empty for None).
std::vector<std::string> signal_props(SignalRegime s);

/// Algorithm 1 over the feature tuple's proposition subset: a state per
/// valid labeling (at most one left-turn arrow aspect lit; the stop sign
/// forced true under StopControlled), a transition wherever at most
/// `noise`-many propositions flip, and pruning unless `conservative`.
TransitionSystem build_model(const ScenarioFeatures& f, const Vocabulary& v,
                             bool conservative = false);

/// Justice conditions mirroring `fairness_assumptions()`, propositional:
/// the configuration permitting the manoeuvre (its permission lamp, if
/// any, plus all agents clear) recurs, and a lit lamp keeps cycling.
std::vector<Ltl> derive_fairness(const ScenarioFeatures& f,
                                 const Vocabulary& v);

/// The simulator's per-proposition observation flip probability for a
/// noise regime (the sim-facing half of the perception-noise axis).
double perception_noise(NoiseRegime n);

}  // namespace dpoaf::driving::generator
