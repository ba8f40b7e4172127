#include "vision/detector.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace dpoaf::vision {

std::vector<std::string> driving_object_classes() {
  return {"car", "pedestrian", "traffic_light", "stop_sign"};
}

namespace {
double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

// Mild per-class detectability offsets (cars are easy, lights are small).
double class_offset(const std::string& object_class) {
  if (object_class == "car") return 0.5;
  if (object_class == "pedestrian") return 0.1;
  if (object_class == "traffic_light") return -0.3;
  if (object_class == "stop_sign") return 0.2;
  return 0.0;
}
}  // namespace

std::vector<DetectionSample> SyntheticDetector::detect(
    Domain domain, const std::string& object_class, int count,
    Rng& rng) const {
  DPOAF_CHECK(count > 0);
  const double clutter = domain == Domain::Simulation ? config_.sim_clutter
                                                      : config_.real_clutter;
  const double distortion =
      domain == Domain::Simulation ? 0.0 : config_.real_miscalibration;

  std::vector<DetectionSample> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    // Latent difficulty ∈ [0,1]; cluttered cases are drawn from the hard
    // end of the scale.
    double difficulty = rng.uniform();
    if (rng.chance(clutter)) difficulty = 0.5 + 0.5 * rng.uniform();

    const double quality_logit =
        config_.skill * (1.0 - 2.0 * difficulty) + class_offset(object_class);
    const double p_correct = sigmoid(quality_logit);

    // Reported confidence: the detector's own estimate of p_correct, with
    // reporting noise and the domain's calibration distortion.
    const double conf_logit = quality_logit + distortion +
                              rng.normal() * config_.confidence_noise * 4.0;
    const double confidence = std::clamp(sigmoid(conf_logit), 1e-4, 1.0 - 1e-4);

    out.push_back({object_class, confidence, rng.chance(p_correct)});
  }
  return out;
}

std::vector<DetectionSample> SyntheticDetector::detect_all(Domain domain,
                                                           int per_class,
                                                           Rng& rng) const {
  std::vector<DetectionSample> out;
  for (const std::string& cls : driving_object_classes()) {
    const auto samples = detect(domain, cls, per_class, rng);
    out.insert(out.end(), samples.begin(), samples.end());
  }
  return out;
}

}  // namespace dpoaf::vision
