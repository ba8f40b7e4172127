#include "ckpt/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace dpoaf::ckpt {

namespace {

// Section tags (4 ASCII bytes each). Order in the file follows this list;
// readers locate sections by tag, so reordering is a compatible change.
constexpr const char* kMeta = "META";  // stage, epochs, seed, model config
constexpr const char* kTokv = "TOKV";  // tokenizer vocabulary
constexpr const char* kWpol = "WPOL";  // policy weights
constexpr const char* kWref = "WREF";  // reference weights (dpo only)
constexpr const char* kOpts = "OPTS";  // AdamW moments + step count
constexpr const char* kRngs = "RNGS";  // xoshiro256** state words
constexpr const char* kOrdr = "ORDR";  // shuffle permutation
constexpr const char* kHist = "HIST";  // dpo per-epoch metrics
constexpr const char* kEval = "EVAL";  // checkpoint evaluations
constexpr const char* kPair = "PAIR";  // preference dataset
constexpr const char* kPtls = "PTLS";  // pretrain per-epoch losses

Section make_section(const char* tag, ByteWriter&& w) {
  return Section{tag, std::move(w).take()};
}

const Section& find_section(const std::vector<Section>& sections,
                            const char* tag) {
  for (const Section& s : sections)
    if (s.tag == tag) return s;
  throw CheckpointError(std::string("missing required checkpoint section ") +
                        tag);
}

ByteReader reader_for(const Section& s) {
  return ByteReader(s.payload.data(), s.payload.size(),
                    "section " + s.tag);
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

  {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(ckpt.stage));
    w.i32(ckpt.loop.completed_epochs);
    w.u64(ckpt.pipeline_seed);
    const nn::GptConfig& m = ckpt.model_config;
    w.i64(m.vocab_size);
    w.i64(m.d_model);
    w.i64(m.n_heads);
    w.i64(m.n_layers);
    w.i64(m.d_ff);
    w.i64(m.max_seq);
    w.f32(m.init_scale);
    w.i64(ckpt.lora_rank);
    w.f32(ckpt.lora_alpha);
    sections.push_back(make_section(kMeta, std::move(w)));
  }
  {
    ByteWriter w;
    w.u64(ckpt.vocab.size());
    for (const std::string& word : ckpt.vocab) w.str(word);
    sections.push_back(make_section(kTokv, std::move(w)));
  }
  {
    ByteWriter w;
    w.floats(ckpt.loop.weights);
    sections.push_back(make_section(kWpol, std::move(w)));
  }
  {
    ByteWriter w;
    w.floats(ckpt.reference_state);
    sections.push_back(make_section(kWref, std::move(w)));
  }
  {
    ByteWriter w;
    w.u64(ckpt.loop.opt_m.size());
    for (const auto& buf : ckpt.loop.opt_m) w.floats(buf);
    w.u64(ckpt.loop.opt_v.size());
    for (const auto& buf : ckpt.loop.opt_v) w.floats(buf);
    w.i64(ckpt.loop.opt_steps);
    sections.push_back(make_section(kOpts, std::move(w)));
  }
  {
    ByteWriter w;
    for (const std::uint64_t word : ckpt.loop.rng_state) w.u64(word);
    sections.push_back(make_section(kRngs, std::move(w)));
  }
  {
    ByteWriter w;
    w.u64s(ckpt.loop.order);
    sections.push_back(make_section(kOrdr, std::move(w)));
  }
  {
    ByteWriter w;
    w.u64(ckpt.dpo_history.size());
    for (const dpo::EpochMetrics& e : ckpt.dpo_history) {
      w.i32(e.epoch);
      w.f64(e.loss);
      w.f64(e.accuracy);
      w.f64(e.margin);
      w.f64(e.kl);
    }
    sections.push_back(make_section(kHist, std::move(w)));
  }
  {
    ByteWriter w;
    w.u64(ckpt.evals.size());
    for (const dpo::CheckpointEval& e : ckpt.evals) {
      w.i32(e.epoch);
      w.f64(e.train_mean_satisfied);
      w.f64(e.val_mean_satisfied);
      w.f64(e.train_alignment_failure_rate);
      w.f64(e.val_alignment_failure_rate);
      w.i32(e.truncated_responses);
      w.u64(e.per_task.size());
      for (const auto& [task, value] : e.per_task) {
        w.str(task);
        w.f64(value);
      }
      w.doubles(e.per_task_alignment_failure);
    }
    sections.push_back(make_section(kEval, std::move(w)));
  }
  {
    ByteWriter w;
    w.u64(ckpt.pairs.size());
    for (const dpo::PreferencePair& p : ckpt.pairs) {
      w.str(p.task_id);
      w.ints(p.chosen);
      w.ints(p.rejected);
      w.i64(p.prompt_len);
      w.i32(p.score_chosen);
      w.i32(p.score_rejected);
    }
    sections.push_back(make_section(kPair, std::move(w)));
  }
  {
    ByteWriter w;
    w.doubles(ckpt.pretrain_losses);
    sections.push_back(make_section(kPtls, std::move(w)));
  }

  return pack_sections(sections);
}

TrainingCheckpoint deserialize(const std::uint8_t* data, std::size_t size) {
  const std::vector<Section> sections = unpack_sections(data, size);
  TrainingCheckpoint ckpt;

  {
    ByteReader r = reader_for(find_section(sections, kMeta));
    const std::uint32_t stage = r.u32();
    if (stage > static_cast<std::uint32_t>(Stage::kDpo))
      throw CheckpointError("unknown checkpoint stage " +
                            std::to_string(stage));
    ckpt.stage = static_cast<Stage>(stage);
    ckpt.loop.completed_epochs = r.i32();
    ckpt.pipeline_seed = r.u64();
    ckpt.model_config.vocab_size = r.i64();
    ckpt.model_config.d_model = r.i64();
    ckpt.model_config.n_heads = r.i64();
    ckpt.model_config.n_layers = r.i64();
    ckpt.model_config.d_ff = r.i64();
    ckpt.model_config.max_seq = r.i64();
    ckpt.model_config.init_scale = r.f32();
    ckpt.lora_rank = r.i64();
    ckpt.lora_alpha = r.f32();
    r.expect_done();
    if (ckpt.loop.completed_epochs < 0)
      throw CheckpointError("negative completed_epochs in checkpoint");
  }
  {
    ByteReader r = reader_for(find_section(sections, kTokv));
    const std::uint64_t n = r.u64();
    ckpt.vocab.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) ckpt.vocab.push_back(r.str());
    r.expect_done();
  }
  {
    ByteReader r = reader_for(find_section(sections, kWpol));
    ckpt.loop.weights = r.floats();
    r.expect_done();
  }
  {
    ByteReader r = reader_for(find_section(sections, kWref));
    ckpt.reference_state = r.floats();
    r.expect_done();
  }
  {
    ByteReader r = reader_for(find_section(sections, kOpts));
    const std::uint64_t nm = r.u64();
    ckpt.loop.opt_m.reserve(static_cast<std::size_t>(nm));
    for (std::uint64_t i = 0; i < nm; ++i)
      ckpt.loop.opt_m.push_back(r.floats());
    const std::uint64_t nv = r.u64();
    ckpt.loop.opt_v.reserve(static_cast<std::size_t>(nv));
    for (std::uint64_t i = 0; i < nv; ++i)
      ckpt.loop.opt_v.push_back(r.floats());
    ckpt.loop.opt_steps = r.i64();
    r.expect_done();
    if (ckpt.loop.opt_m.size() != ckpt.loop.opt_v.size())
      throw CheckpointError(
          "optimizer moment buffer counts disagree in checkpoint");
  }
  {
    ByteReader r = reader_for(find_section(sections, kRngs));
    for (std::uint64_t& word : ckpt.loop.rng_state) word = r.u64();
    r.expect_done();
  }
  {
    ByteReader r = reader_for(find_section(sections, kOrdr));
    ckpt.loop.order = r.u64s();
    r.expect_done();
  }
  {
    ByteReader r = reader_for(find_section(sections, kHist));
    const std::uint64_t n = r.u64();
    ckpt.dpo_history.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      dpo::EpochMetrics e;
      e.epoch = r.i32();
      e.loss = r.f64();
      e.accuracy = r.f64();
      e.margin = r.f64();
      e.kl = r.f64();
      ckpt.dpo_history.push_back(e);
    }
    r.expect_done();
  }
  {
    ByteReader r = reader_for(find_section(sections, kEval));
    const std::uint64_t n = r.u64();
    ckpt.evals.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      dpo::CheckpointEval e;
      e.epoch = r.i32();
      e.train_mean_satisfied = r.f64();
      e.val_mean_satisfied = r.f64();
      e.train_alignment_failure_rate = r.f64();
      e.val_alignment_failure_rate = r.f64();
      e.truncated_responses = r.i32();
      const std::uint64_t nt = r.u64();
      e.per_task.reserve(static_cast<std::size_t>(nt));
      for (std::uint64_t t = 0; t < nt; ++t) {
        std::string task = r.str();
        const double value = r.f64();
        e.per_task.emplace_back(std::move(task), value);
      }
      e.per_task_alignment_failure = r.doubles();
      ckpt.evals.push_back(std::move(e));
    }
    r.expect_done();
  }
  {
    ByteReader r = reader_for(find_section(sections, kPair));
    const std::uint64_t n = r.u64();
    ckpt.pairs.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      dpo::PreferencePair p;
      p.task_id = r.str();
      p.chosen = r.ints();
      p.rejected = r.ints();
      p.prompt_len = r.i64();
      p.score_chosen = r.i32();
      p.score_rejected = r.i32();
      ckpt.pairs.push_back(std::move(p));
    }
    r.expect_done();
  }
  {
    ByteReader r = reader_for(find_section(sections, kPtls));
    ckpt.pretrain_losses = r.doubles();
    r.expect_done();
  }

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
