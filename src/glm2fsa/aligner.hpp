// Phrase→proposition alignment (paper §4.1, "Task Prompt Engineering").
// The paper performs alignment with a second LM query ("Rephrase the
// following steps to align the defined Boolean Propositions …"); here the
// rephrasing is a deterministic lexicon of surface forms per proposition
// plus a normalized-edit-distance fallback for unseen-but-close phrasings.
// Phrases that align to nothing are reported as alignment failures — the
// paper's property 1 ("the LM can easily and correctly align the textual
// step descriptions") is scored through exactly these failures.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "logic/vocabulary.hpp"

namespace dpoaf::glm2fsa {

using logic::Vocabulary;

class PhraseAligner {
 public:
  /// An aligner seeded with every vocabulary entry's canonical name;
  /// add_surface_form() extends it, or use make_driving_aligner() for the
  /// pre-populated driving lexicon. The vocabulary is stored by value so
  /// the aligner can outlive (and be aggregated independently of) its
  /// source.
  explicit PhraseAligner(Vocabulary vocab);

  /// Register `phrase` as a surface form of proposition/action `index`.
  /// The canonical (underscore) name and its space-separated form are
  /// registered automatically for every vocabulary entry.
  void add_surface_form(std::string_view phrase, int index);

  /// Align a free-text phrase to a vocabulary index. Matching order:
  ///  1. exact lexicon lookup (after lowercasing/trimming/article removal),
  ///  2. substring containment of a surface form in the phrase,
  ///  3. best normalized edit distance below a fixed threshold (0.34).
  /// Returns nullopt when nothing matches.
  [[nodiscard]] std::optional<int> align(std::string_view phrase) const;

  [[nodiscard]] const Vocabulary& vocab() const { return vocab_; }

 private:
  [[nodiscard]] static std::string normalize(std::string_view phrase);

  Vocabulary vocab_;
  std::vector<std::pair<std::string, int>> lexicon_;
};

/// Aligner pre-populated with the driving-domain surface forms (the
/// phrasings the synthetic corpus and the paper's examples use).
PhraseAligner make_driving_aligner(const Vocabulary& vocab);

}  // namespace dpoaf::glm2fsa
