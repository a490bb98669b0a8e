#include "uniclean/engine.h"

#include <atomic>
#include <thread>
#include <utility>

#include "data/csv.h"
#include "data/schema.h"
#include "reasoning/consistency.h"
#include "rules/parser.h"
#include "uniclean/detail.h"

namespace uniclean {

// ---------------------------------------------------------------------------
// CleanEngine
// ---------------------------------------------------------------------------

const core::MatchEnvironment& CleanEngine::environment() const {
  std::call_once(env_once_, [this] {
    // Already installed by EngineBuilder::FromSnapshot (before the engine
    // escaped the builder, so the write happens-before any reader).
    if (env_ != nullptr) return;
    env_ = std::make_unique<core::MatchEnvironment>(*rules_, *master_,
                                                    config_.matcher);
  });
  return *env_;
}

Session CleanEngine::NewSession() const {
  return Session(shared_from_this());
}

Session CleanEngine::NewTrackedSession() const {
  Session session = NewSession();
  session.EnableDeltaTracking();
  return session;
}

uint64_t CleanEngine::Fingerprint() const {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto fold = [&h](uint64_t v) { h = data::MixU64(h ^ v); };
  auto fold_str = [&](const std::string& s) {
    fold(s.size());
    for (char c : s) fold(static_cast<uint64_t>(static_cast<uint8_t>(c)));
  };
  for (const rules::Cfd& cfd : rules_->cfds()) fold_str(cfd.name());
  for (const rules::Md& md : rules_->mds()) fold_str(md.name());
  fold(static_cast<uint64_t>(master_->live_size()));
  for (data::TupleId t = 0; t < master_->size(); ++t) {
    if (!master_->live(t)) continue;
    for (const data::Value& v : master_->tuple(t).values()) {
      // Hash the characters, not the pool id: ids depend on interning order,
      // and the fingerprint must survive a daemon restart.
      fold_str(v.is_null() ? std::string("\\N") : v.str());
    }
  }
  fold(static_cast<uint64_t>(config_.eta * 1e9));
  fold(static_cast<uint64_t>(config_.delta1));
  fold(static_cast<uint64_t>(config_.delta2 * 1e9));
  return h;
}

std::vector<std::string> CleanEngine::PhaseNames() const {
  return std::vector<std::string>(phases_.begin(), phases_.end());
}

std::vector<Result<CleanResult>> CleanEngine::RunBatch(
    data::Relation* const* relations, size_t count, int n_threads) const {
  std::vector<Result<CleanResult>> results;
  results.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    results.emplace_back(Status::Internal("RunBatch: relation not processed"));
  }
  if (count == 0) return results;
  // Build the indexes once up front rather than racing the first probes
  // through call_once on N workers.
  Warmup();
  if (n_threads < 2 || count == 1) {
    for (size_t i = 0; i < count; ++i) {
      Session session = NewSession();
      results[i] = session.Run(relations[i]);
    }
    return results;
  }
  const size_t workers =
      std::min<size_t>(static_cast<size_t>(n_threads), count);
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([this, relations, count, &next, &results] {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        Session session = NewSession();
        // Distinct indexes: each worker writes only its own slots.
        results[i] = session.Run(relations[i]);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return results;
}

// ---------------------------------------------------------------------------
// EngineBuilder
// ---------------------------------------------------------------------------

EngineBuilder& EngineBuilder::WithDataSchema(data::SchemaPtr schema) {
  data_schema_ = std::move(schema);
  return *this;
}

EngineBuilder& EngineBuilder::WithMaster(data::Relation master) {
  master_owned_ = std::make_unique<data::Relation>(std::move(master));
  master_ptr_ = nullptr;
  master_csv_.clear();
  return *this;
}

EngineBuilder& EngineBuilder::WithMaster(const data::Relation* master) {
  master_ptr_ = master;
  master_owned_.reset();
  master_csv_.clear();
  return *this;
}

EngineBuilder& EngineBuilder::WithMasterCsv(std::string path) {
  master_csv_ = std::move(path);
  master_owned_.reset();
  master_ptr_ = nullptr;
  return *this;
}

EngineBuilder& EngineBuilder::WithRules(rules::RuleSet rules) {
  rules_owned_ = std::make_unique<rules::RuleSet>(std::move(rules));
  rules_ptr_ = nullptr;
  rule_text_.clear();
  rules_file_.clear();
  return *this;
}

EngineBuilder& EngineBuilder::WithRules(const rules::RuleSet* rules) {
  rules_ptr_ = rules;
  rules_owned_.reset();
  rule_text_.clear();
  rules_file_.clear();
  return *this;
}

EngineBuilder& EngineBuilder::WithRuleText(std::string text) {
  rule_text_ = std::move(text);
  rules_owned_.reset();
  rules_ptr_ = nullptr;
  rules_file_.clear();
  return *this;
}

EngineBuilder& EngineBuilder::WithRulesFile(std::string path) {
  rules_file_ = std::move(path);
  rules_owned_.reset();
  rules_ptr_ = nullptr;
  rule_text_.clear();
  return *this;
}

EngineBuilder& EngineBuilder::WithEta(double eta) {
  config_.eta = eta;
  return *this;
}

EngineBuilder& EngineBuilder::WithDelta1(int delta1) {
  config_.delta1 = delta1;
  return *this;
}

EngineBuilder& EngineBuilder::WithDelta2(double delta2) {
  config_.delta2 = delta2;
  return *this;
}

EngineBuilder& EngineBuilder::WithMatcherOptions(
    core::MdMatcherOptions matcher) {
  config_.matcher = matcher;
  return *this;
}

EngineBuilder& EngineBuilder::WithDefaultPhases(bool crepair, bool erepair,
                                                bool hrepair) {
  run_crepair_ = crepair;
  run_erepair_ = erepair;
  run_hrepair_ = hrepair;
  return *this;
}

EngineBuilder& EngineBuilder::CheckConsistency(bool check) {
  check_consistency_ = check;
  return *this;
}

Status EngineBuilder::ValidateThresholds() const {
  // The negated comparisons also reject NaN.
  if (!(config_.eta >= 0.0 && config_.eta <= 1.0)) {
    return Status::InvalidArgument(
        "confidence threshold eta must be in [0, 1], got " +
        std::to_string(config_.eta));
  }
  if (config_.delta1 < 0) {
    return Status::InvalidArgument(
        "update threshold delta1 must be >= 0, got " +
        std::to_string(config_.delta1));
  }
  if (!(config_.delta2 >= 0.0 && config_.delta2 <= 1.0)) {
    return Status::InvalidArgument(
        "entropy threshold delta2 must be in [0, 1], got " +
        std::to_string(config_.delta2));
  }
  return Status::OK();
}

Result<std::shared_ptr<CleanEngine>> EngineBuilder::BuildEngine() {
  UC_RETURN_IF_ERROR(ValidateThresholds());

  // shared_ptr with a private ctor: wrap the raw allocation.
  std::shared_ptr<CleanEngine> engine(new CleanEngine());
  engine->config_ = config_;

  // Master relation Dm.
  if (!master_csv_.empty()) {
    UC_ASSIGN_OR_RETURN(data::SchemaPtr schema,
                        data::InferCsvSchema(master_csv_, "master"));
    UC_ASSIGN_OR_RETURN(data::Relation dm,
                        data::ReadCsvFile(master_csv_, schema));
    engine->owned_master_ = std::make_unique<data::Relation>(std::move(dm));
    engine->master_ = engine->owned_master_.get();
  } else if (master_ptr_ != nullptr) {
    engine->master_ = master_ptr_;
  } else if (master_owned_ != nullptr) {
    engine->owned_master_ = std::move(master_owned_);
    engine->master_ = engine->owned_master_.get();
  } else {
    return Status::InvalidArgument(
        "no master relation configured (use WithMaster or WithMasterCsv)");
  }

  // Rules Θ.
  std::string rule_text = rule_text_;
  if (!rules_file_.empty()) {
    UC_ASSIGN_OR_RETURN(rule_text, internal::ReadFileToString(rules_file_));
  }
  if (!rule_text.empty()) {
    if (data_schema_ == nullptr) {
      return Status::InvalidArgument(
          "rule text needs a data schema to parse against: declare it with "
          "WithDataSchema");
    }
    UC_ASSIGN_OR_RETURN(
        rules::RuleSet parsed,
        rules::ParseRuleSet(rule_text, data_schema_,
                            engine->master_->schema_ptr()));
    engine->owned_rules_ = std::make_unique<rules::RuleSet>(std::move(parsed));
    engine->rules_ = engine->owned_rules_.get();
  } else if (rules_ptr_ != nullptr) {
    engine->rules_ = rules_ptr_;
  } else if (rules_owned_ != nullptr) {
    engine->owned_rules_ = std::move(rules_owned_);
    engine->rules_ = engine->owned_rules_.get();
  } else {
    return Status::InvalidArgument(
        "no rules configured (use WithRules, WithRuleText or WithRulesFile)");
  }

  // Schema conformance: the rules were normalized against specific schemas;
  // the master relation (and the declared data schema, when present) must
  // match them attribute-for-attribute.
  if (data_schema_ != nullptr &&
      !internal::SchemaMatches(engine->rules_->data_schema(), *data_schema_)) {
    return Status::InvalidArgument(
        "data relation schema " + internal::DescribeSchema(*data_schema_) +
        " does not match the rule set's data schema " +
        internal::DescribeSchema(engine->rules_->data_schema()));
  }
  if (!internal::SchemaMatches(engine->rules_->master_schema(),
                               engine->master_->schema())) {
    return Status::InvalidArgument(
        "master relation schema " +
        internal::DescribeSchema(engine->master_->schema()) +
        " does not match the rule set's master schema " +
        internal::DescribeSchema(engine->rules_->master_schema()));
  }

  // Rule consistency (§4.1), on request.
  if (check_consistency_) {
    UC_ASSIGN_OR_RETURN(bool consistent, reasoning::IsConsistent(
                                             *engine->rules_,
                                             *engine->master_));
    if (!consistent) {
      return Status::InvalidArgument(
          "the rule set is inconsistent: no nonempty database can satisfy "
          "it");
    }
  }

  // The selected phases, in paper order.
  if (run_crepair_) engine->phases_.push_back(kCRepairPhase);
  if (run_erepair_) engine->phases_.push_back(kERepairPhase);
  if (run_hrepair_) engine->phases_.push_back(kHRepairPhase);
  return engine;
}

}  // namespace uniclean
