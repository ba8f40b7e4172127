#include "ckpt/store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace dpoaf::ckpt {

namespace {

std::string file_name_for(Stage stage, int epoch) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "ckpt-%s-epoch-%06d.dpoaf",
                stage_name(stage), epoch);
  return buf;
}

/// Parse "ckpt-<stage>-epoch-NNNNNN.dpoaf"; returns epoch or -1.
int epoch_from_name(const std::string& name, Stage stage) {
  const std::string prefix =
      std::string("ckpt-") + stage_name(stage) + "-epoch-";
  const std::string suffix = ".dpoaf";
  if (name.size() <= prefix.size() + suffix.size()) return -1;
  if (name.compare(0, prefix.size(), prefix) != 0) return -1;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
    return -1;
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos)
    return -1;
  return std::stoi(digits);
}

}  // namespace

std::optional<CrashPlan> parse_crash_plan(const char* value) {
  if (value == nullptr || *value == '\0') return std::nullopt;
  std::string s(value);
  CrashPlan plan;
  const std::size_t colon = s.find(':');
  std::string epoch_part = s;
  if (colon != std::string::npos) {
    const std::string stage_part = s.substr(0, colon);
    if (stage_part == "pretrain") {
      plan.stage = Stage::kPretrain;
    } else if (stage_part == "dpo") {
      plan.stage = Stage::kDpo;
    } else {
      throw CheckpointError("DPOAF_CRASH_AFTER_EPOCH: unknown stage \"" +
                            stage_part + "\" (want pretrain or dpo)");
    }
    epoch_part = s.substr(colon + 1);
  }
  if (epoch_part.empty() ||
      epoch_part.find_first_not_of("0123456789") != std::string::npos)
    throw CheckpointError(
        "DPOAF_CRASH_AFTER_EPOCH: malformed epoch \"" + epoch_part +
        "\" (want \"N\", \"pretrain:N\" or \"dpo:N\")");
  plan.epoch = std::stoi(epoch_part);
  return plan;
}

CheckpointStore::CheckpointStore(std::filesystem::path dir, int retain_last)
    : dir_(std::move(dir)), retain_last_(retain_last) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw CheckpointError("cannot create checkpoint directory " +
                          dir_.string() + ": " + ec.message());
  crash_plan_ = parse_crash_plan(std::getenv("DPOAF_CRASH_AFTER_EPOCH"));
}

std::filesystem::path CheckpointStore::path_for(Stage stage,
                                                int epoch) const {
  return dir_ / file_name_for(stage, epoch);
}

void CheckpointStore::write(const TrainingCheckpoint& ckpt) {
  save_checkpoint(path_for(ckpt.stage, ckpt.loop.completed_epochs), ckpt);

  if (retain_last_ > 0) {
    std::vector<std::filesystem::path> files =
        list_checkpoints(dir_, ckpt.stage);
    while (files.size() > static_cast<std::size_t>(retain_last_)) {
      std::error_code ec;
      std::filesystem::remove(files.front(), ec);  // oldest epoch first
      files.erase(files.begin());
    }
  }

  // Fault injection: die *after* the durable write so the resume tests
  // exercise exactly the state a real crash would leave behind.
  if (crash_plan_ && crash_plan_->stage == ckpt.stage &&
      crash_plan_->epoch == ckpt.loop.completed_epochs) {
    std::fflush(nullptr);
    std::_Exit(kCrashExitCode);
  }
}

std::vector<std::filesystem::path> list_checkpoints(
    const std::filesystem::path& dir, Stage stage) {
  std::vector<std::pair<int, std::filesystem::path>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const int epoch = epoch_from_name(entry.path().filename().string(), stage);
    if (epoch >= 0) found.emplace_back(epoch, entry.path());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::filesystem::path> out;
  out.reserve(found.size());
  for (auto& [epoch, path] : found) out.push_back(std::move(path));
  return out;
}

std::filesystem::path resolve_resume_path(
    const std::filesystem::path& path_or_dir) {
  if (std::filesystem::is_regular_file(path_or_dir)) return path_or_dir;
  if (!std::filesystem::is_directory(path_or_dir))
    throw CheckpointError("no checkpoint file or directory at " +
                          path_or_dir.string());
  // Prefer the furthest-along stage: a dpo snapshot supersedes pretrain.
  for (const Stage stage : {Stage::kDpo, Stage::kPretrain}) {
    const std::vector<std::filesystem::path> files =
        list_checkpoints(path_or_dir, stage);
    if (!files.empty()) return files.back();
  }
  throw CheckpointError("no .dpoaf checkpoints found in directory " +
                        path_or_dir.string());
}

}  // namespace dpoaf::ckpt
