#include "glm2fsa/aligner.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace dpoaf::glm2fsa {

namespace {
// Largest normalized edit distance still accepted as a fuzzy match.
constexpr double kFuzzyThreshold = 0.34;
}  // namespace

PhraseAligner::PhraseAligner(Vocabulary vocab) : vocab_(std::move(vocab)) {
  for (std::size_t i = 0; i < vocab_.size(); ++i) {
    const auto idx = static_cast<int>(i);
    add_surface_form(vocab_.name(idx), idx);
    add_surface_form(replace_all(vocab_.name(idx), "_", " "), idx);
  }
}

void PhraseAligner::add_surface_form(std::string_view phrase, int index) {
  lexicon_.emplace_back(normalize(phrase), index);
}

std::string PhraseAligner::normalize(std::string_view phrase) {
  std::string s = to_lower(trim(phrase));
  // Strip articles and filler determiners that carry no alignment signal.
  const std::vector<std::string> stop_words{"the", "a",  "an",  "your",
                                            "you", "of", "for", "state"};
  std::vector<std::string> kept;
  for (const std::string& w : split_ws(s)) {
    if (std::find(stop_words.begin(), stop_words.end(), w) ==
        stop_words.end())
      kept.push_back(w);
  }
  return join(kept, " ");
}

std::optional<int> PhraseAligner::align(std::string_view phrase) const {
  const std::string p = normalize(phrase);
  if (p.empty()) return std::nullopt;

  // 1. Exact match.
  for (const auto& [form, idx] : lexicon_)
    if (form == p) return idx;

  // 2. Containment: the longest surface form embedded in the phrase wins
  // ("observe green traffic light ahead" contains "green traffic light").
  std::optional<int> best_contained;
  std::size_t best_len = 0;
  for (const auto& [form, idx] : lexicon_) {
    if (form.size() > best_len && p.find(form) != std::string::npos) {
      best_contained = idx;
      best_len = form.size();
    }
  }
  if (best_contained) return best_contained;

  // 3. Fuzzy match by normalized edit distance.
  std::optional<int> best_fuzzy;
  double best_dist = kFuzzyThreshold;
  for (const auto& [form, idx] : lexicon_) {
    const double d = normalized_edit_distance(form, p);
    if (d < best_dist) {
      best_dist = d;
      best_fuzzy = idx;
    }
  }
  return best_fuzzy;
}

PhraseAligner make_driving_aligner(const Vocabulary& vocab) {
  PhraseAligner a(vocab);
  auto add = [&](std::string_view name,
                 std::initializer_list<std::string_view> forms) {
    const auto idx = vocab.find(name);
    if (!idx) return;
    for (std::string_view f : forms) a.add_surface_form(f, *idx);
  };

  add("green_traffic_light",
      {"traffic light is green", "light is green", "green light",
       "light turns green", "traffic light turns green", "signal is green",
       "traffic light"});
  add("green_left_turn_light",
      {"left turn light is green", "left-turn light is green",
       "green left-turn light", "left turn light turns green",
       "left-turn light turns green", "left turn light to turn green",
       "left-turn light to turn green", "green arrow", "left turn light",
       "left-turn light", "left turn signal"});
  add("flashing_left_turn_light",
      {"left turn light is flashing", "flashing left-turn light",
       "flashing yellow arrow", "flashing arrow"});
  add("opposite_car",
      {"oncoming traffic", "oncoming car", "car from opposite direction",
       "opposite traffic", "oncoming vehicles"});
  add("car_from_left",
      {"left approaching car", "car approaching from left",
       "car approaching from the left", "traffic from left",
       "cars coming from left", "vehicle from left", "car on left",
       "left traffic"});
  add("car_from_right",
      {"right approaching car", "car approaching from right",
       "traffic from right", "cars coming from right", "vehicle from right",
       "car on right"});
  add("pedestrian_at_left",
      {"pedestrian on left", "left side pedestrian", "person on left",
       "people crossing on left"});
  add("pedestrian_at_right",
      {"pedestrian on right", "right side pedestrian", "person on right",
       "people crossing on right", "pedestrians on right"});
  add("pedestrian_in_front",
      {"pedestrian ahead", "pedestrian crossing in front", "person ahead",
       "pedestrian in crosswalk", "people in crosswalk"});
  add("stop_sign", {"stop signal sign", "octagonal sign"});

  add("stop", {"halt", "come to stop", "come to complete stop", "wait",
               "brake", "remain stopped"});
  add("turn_left", {"make left turn", "turn vehicle left", "left turn",
                    "steer left"});
  add("turn_right", {"make right turn", "turn vehicle right", "right turn",
                     "steer right", "proceed to turn right"});
  add("go_straight", {"proceed forward", "drive forward", "move forward",
                      "proceed straight", "continue straight",
                      "drive through intersection", "start moving forward",
                      "proceed through intersection"});
  return a;
}

}  // namespace dpoaf::glm2fsa
