// Synthetic open-set object detector — the stand-in for Grounded SAM on
// Carla frames vs NuImages (paper §5.3). Figure 12 does not need real
// pixels: it needs per-detection (confidence, correct?) samples in a
// "simulation" and a "real world" domain whose confidence→accuracy
// mappings can be compared. The generator models detections whose
// correctness probability is governed by a latent difficulty, with a
// domain-dependent clutter level and a small domain-dependent calibration
// distortion; the paper's claim — the detector performs consistently
// across the two domains — corresponds to a small distortion, which is
// the generator's default.
#pragma once

#include <string>
#include <vector>

#include "util/rng.hpp"

namespace dpoaf::vision {

enum class Domain { Simulation, RealWorld };

struct DetectionSample {
  std::string object_class;
  double confidence = 0.0;  // model's reported confidence ∈ (0,1)
  bool correct = false;     // detection matched ground truth
};

struct DetectorConfig {
  /// Detector sharpness: higher ⇒ confidence separates correct from
  /// incorrect detections more cleanly.
  double skill = 2.2;
  /// Fraction of hard cases (occlusion, glare, small objects).
  double sim_clutter = 0.18;
  double real_clutter = 0.25;
  /// Additive calibration distortion (in logit space) applied in the real
  /// domain only. Small ⇒ the two confidence→accuracy curves coincide —
  /// the consistency the paper demonstrates.
  double real_miscalibration = 0.12;
  /// Std-dev of the confidence reporting noise.
  double confidence_noise = 0.08;
};

/// The object classes Figure 12 reports.
std::vector<std::string> driving_object_classes();

class SyntheticDetector {
 public:
  explicit SyntheticDetector(DetectorConfig config = {}) : config_(config) {}

  /// Draw `count` detections of `object_class` in `domain`.
  [[nodiscard]] std::vector<DetectionSample> detect(
      Domain domain, const std::string& object_class, int count,
      Rng& rng) const;

  /// Draw `per_class` detections of every driving object class.
  [[nodiscard]] std::vector<DetectionSample> detect_all(
      Domain domain, int per_class, Rng& rng) const;

  [[nodiscard]] const DetectorConfig& config() const { return config_; }

 private:
  DetectorConfig config_;
};

}  // namespace dpoaf::vision
