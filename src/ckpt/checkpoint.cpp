#include "ckpt/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace dpoaf::ckpt {

// The records stored in HIST, EVAL and PAIR, each field in wire order.
template <>
struct Record<dpo::EpochMetrics> {
  static void fields(auto& io, auto& e) {
    io(e.epoch, e.loss, e.accuracy, e.margin, e.kl);
  }
};

template <>
struct Record<dpo::CheckpointEval> {
  static void fields(auto& io, auto& e) {
    io(e.epoch, e.train_mean_satisfied, e.val_mean_satisfied,
       e.train_alignment_failure_rate, e.val_alignment_failure_rate,
       e.truncated_responses, e.per_task, e.per_task_alignment_failure);
  }
};

template <>
struct Record<dpo::PreferencePair> {
  static void fields(auto& io, auto& p) {
    io(p.task_id, p.chosen, p.rejected, p.prompt_len, p.score_chosen,
       p.score_rejected);
  }
};

namespace {

const Section& find_section(const std::vector<Section>& sections,
                            const char* tag) {
  for (const Section& s : sections)
    if (s.tag == tag) return s;
  throw CheckpointError(std::string("missing required checkpoint section ") +
                        tag);
}

// The .dpoaf field list: every section's tag and fields in wire order,
// run by serialize (C = const TrainingCheckpoint, `section` encodes with a
// ByteWriter) and by deserialize (`section` decodes with a ByteReader).
// Readers locate sections by tag, so reordering them is a compatible
// change; docs/CHECKPOINT_FORMAT.md spells out the bytes.
template <class C, class SectionIo>
void layout(C& c, SectionIo&& section) {
  auto& m = c.model_config;
  auto& loop = c.loop;
  section("META", c.stage, loop.completed_epochs, c.pipeline_seed,
          m.vocab_size, m.d_model, m.n_heads, m.n_layers, m.d_ff, m.max_seq,
          m.init_scale, c.lora_rank, c.lora_alpha);
  section("TOKV", c.vocab);              // tokenizer vocabulary
  section("WPOL", loop.weights);         // policy weights
  section("WREF", c.reference_state);    // reference weights (dpo only)
  section("OPTS", loop.opt_m, loop.opt_v, loop.opt_steps);  // AdamW
  section("RNGS", loop.rng_state);       // xoshiro256** state words
  section("ORDR", loop.order);           // shuffle permutation
  section("HIST", c.dpo_history);        // dpo per-epoch metrics
  section("EVAL", c.evals);              // checkpoint evaluations
  section("PAIR", c.pairs);              // preference dataset
  section("PTLS", c.pretrain_losses);    // pretrain per-epoch losses
}

// The whole file at `path`. Anything but a regular file is rejected up
// front: on a directory, std::ifstream opens fine and tellg() reports a
// bogus huge size, which would otherwise become the allocation below.
std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec))
    throw CheckpointError("cannot open checkpoint file " + path.string() +
                          ": not a regular file");
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in)
    throw CheckpointError("cannot open checkpoint file " + path.string());
  const std::streamsize size = in.tellg();
  if (size < 0)
    throw CheckpointError("cannot read the size of checkpoint file " +
                          path.string());
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in)
    throw CheckpointError("read failed for checkpoint file " + path.string());
  return bytes;
}

}  // namespace

const char* stage_name(Stage stage) {
  return stage == Stage::kPretrain ? "pretrain" : "dpo";
}

std::vector<std::uint8_t> serialize(const TrainingCheckpoint& ckpt) {
  std::vector<Section> sections;
  layout(ckpt, [&](const char* tag, const auto&... fields) {
    ByteWriter w;
    w(fields...);
    sections.push_back(Section{tag, w.take()});
  });
  return pack_sections(sections);
}

TrainingCheckpoint deserialize(const std::uint8_t* data, std::size_t size) {
  const std::vector<Section> sections = unpack_sections(data, size);
  TrainingCheckpoint ckpt;
  layout(ckpt, [&](const char* tag, auto&... fields) {
    const Section& s = find_section(sections, tag);
    ByteReader r(s.payload.data(), s.payload.size(), "section " + s.tag);
    r(fields...);
    r.expect_done();
  });
  if (ckpt.stage != Stage::kPretrain && ckpt.stage != Stage::kDpo)
    throw CheckpointError(
        "unknown checkpoint stage " +
        std::to_string(static_cast<std::uint32_t>(ckpt.stage)));
  if (ckpt.loop.completed_epochs < 0)
    throw CheckpointError("negative completed_epochs in checkpoint");
  if (ckpt.loop.opt_m.size() != ckpt.loop.opt_v.size())
    throw CheckpointError(
        "optimizer moment buffer counts disagree in checkpoint");
  return ckpt;
}

void save_checkpoint(const std::filesystem::path& path,
                     const TrainingCheckpoint& ckpt) {
  const std::vector<std::uint8_t> bytes = serialize(ckpt);
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      throw CheckpointError("cannot open " + tmp.string() + " for writing");
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out)
      throw CheckpointError("write failed for " + tmp.string());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp);
    throw CheckpointError("cannot rename " + tmp.string() + " to " +
                          path.string() + ": " + ec.message());
  }
}

TrainingCheckpoint load_checkpoint(const std::filesystem::path& path) {
  const std::vector<std::uint8_t> bytes = read_file(path);
  return deserialize(bytes.data(), bytes.size());
}

std::string describe(const TrainingCheckpoint& ckpt) {
  std::ostringstream os;
  os << "stage:              " << stage_name(ckpt.stage) << "\n"
     << "completed epochs:   " << ckpt.loop.completed_epochs << "\n"
     << "pipeline seed:      " << ckpt.pipeline_seed << "\n"
     << "model:              d_model=" << ckpt.model_config.d_model
     << " n_heads=" << ckpt.model_config.n_heads
     << " n_layers=" << ckpt.model_config.n_layers
     << " d_ff=" << ckpt.model_config.d_ff
     << " max_seq=" << ckpt.model_config.max_seq
     << " vocab=" << ckpt.model_config.vocab_size << "\n"
     << "lora:               rank=" << ckpt.lora_rank
     << " alpha=" << ckpt.lora_alpha << "\n"
     << "vocabulary:         " << ckpt.vocab.size() << " tokens\n"
     << "policy params:      " << ckpt.loop.weights.size() << " floats\n"
     << "reference params:   " << ckpt.reference_state.size() << " floats\n"
     << "optimizer:          " << ckpt.loop.opt_m.size()
     << " moment buffers, " << ckpt.loop.opt_steps << " steps taken\n"
     << "shuffle order:      " << ckpt.loop.order.size() << " entries\n"
     << "dpo history:        " << ckpt.dpo_history.size() << " epochs\n"
     << "evals:              " << ckpt.evals.size() << " records\n"
     << "preference pairs:   " << ckpt.pairs.size() << "\n"
     << "pretrain losses:    " << ckpt.pretrain_losses.size() << " epochs\n";
  return os.str();
}

std::string describe_file(const std::filesystem::path& path) {
  const std::vector<std::uint8_t> bytes = read_file(path);

  const std::vector<Section> sections =
      unpack_sections(bytes.data(), bytes.size());

  std::ostringstream os;
  os << "file:               " << path.string() << "\n"
     << "size:               " << bytes.size() << " bytes\n"
     << "schema version:     " << kSchemaVersion << "\n"
     << "sections:\n";
  for (const Section& s : sections) {
    char crc_hex[16];
    std::snprintf(crc_hex, sizeof(crc_hex), "%08X",
                  crc32(s.payload.data(), s.payload.size()));
    os << "  " << s.tag << "  " << s.payload.size() << " bytes  crc32 0x"
       << crc_hex << "\n";
  }
  os << "\n" << describe(deserialize(bytes.data(), bytes.size()));
  return os.str();
}

}  // namespace dpoaf::ckpt
