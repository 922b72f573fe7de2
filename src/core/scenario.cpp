#include "core/scenario.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>

#include "impute/registry.h"
#include "util/check.h"
#include "util/string_util.h"

namespace fmnet::core {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::int64_t parse_int(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  FMNET_CHECK(errno == 0 && end != value.c_str() && *end == '\0',
              "option " + key + ": not an integer: '" + value + "'");
  return static_cast<std::int64_t>(v);
}

double parse_real(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  FMNET_CHECK(errno == 0 && end != value.c_str() && *end == '\0' &&
                  std::isfinite(v),
              "option " + key + ": not a finite number: '" + value + "'");
  return v;
}

/// parse_real narrowed to float: a value beyond float's range is rejected,
/// not rounded to infinity.
float parse_float(const std::string& key, const std::string& value) {
  const auto v = static_cast<float>(parse_real(key, value));
  FMNET_CHECK(std::isfinite(v),
              "option " + key + ": out of float range: '" + value + "'");
  return v;
}

std::string fmt_int(std::int64_t v) { return std::to_string(v); }

std::string fmt_real(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

std::string fmt_float(float v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(v));
  return std::string(buf);
}

/// One scenario option: canonical key, setter (parses/validates the value)
/// and getter (canonical formatting). The table below is the single source
/// of truth for the file format, the CLI flags and the cache-key material.
struct OptionDef {
  const char* key;
  std::function<void(Scenario&, const std::string&, const std::string&)> set;
  std::function<std::string(const Scenario&)> get;
};

const std::vector<OptionDef>& option_defs() {
  static const std::vector<OptionDef> kDefs = [] {
    std::vector<OptionDef> defs;
    defs.push_back({"name",
                    [](Scenario& s, const std::string&,
                       const std::string& v) { s.name = v; },
                    [](const Scenario& s) { return s.name; }});

    // --- campaign ---
    defs.push_back({"campaign.seed",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      s.campaign.seed =
                          static_cast<std::uint64_t>(parse_int(k, v));
                    },
                    [](const Scenario& s) {
                      return fmt_int(
                          static_cast<std::int64_t>(s.campaign.seed));
                    }});
    defs.push_back({"campaign.ports",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      const auto p = parse_int(k, v);
                      FMNET_CHECK_GT(p, 0);
                      s.campaign.num_ports = static_cast<std::int32_t>(p);
                    },
                    [](const Scenario& s) {
                      return fmt_int(s.campaign.num_ports);
                    }});
    defs.push_back({"campaign.queues-per-port",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      // run_campaign models the paper's two traffic classes.
                      FMNET_CHECK_EQ(parse_int(k, v), 2);
                      s.campaign.queues_per_port = 2;
                    },
                    [](const Scenario& s) {
                      return fmt_int(s.campaign.queues_per_port);
                    }});
    defs.push_back({"campaign.buffer",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      const auto b = parse_int(k, v);
                      FMNET_CHECK_GT(b, 0);
                      s.campaign.buffer_size = b;
                    },
                    [](const Scenario& s) {
                      return fmt_int(s.campaign.buffer_size);
                    }});
    defs.push_back({"campaign.slots-per-ms",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      const auto sl = parse_int(k, v);
                      FMNET_CHECK_GT(sl, 0);
                      s.campaign.slots_per_ms =
                          static_cast<std::int32_t>(sl);
                    },
                    [](const Scenario& s) {
                      return fmt_int(s.campaign.slots_per_ms);
                    }});
    defs.push_back({"campaign.ms",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      const auto ms = parse_int(k, v);
                      FMNET_CHECK_GT(ms, 0);
                      s.campaign.total_ms = ms;
                    },
                    [](const Scenario& s) {
                      return fmt_int(s.campaign.total_ms);
                    }});
    defs.push_back({"campaign.shard-ms",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      const auto ms = parse_int(k, v);
                      FMNET_CHECK_GE(ms, 0);
                      s.campaign.shard_ms = ms;
                    },
                    [](const Scenario& s) {
                      return fmt_int(s.campaign.shard_ms);
                    }});
    defs.push_back(
        {"campaign.scheduler",
         [](Scenario& s, const std::string& k, const std::string& v) {
           if (v == "round-robin") {
             s.campaign.scheduler = switchsim::SchedulerType::kRoundRobin;
           } else if (v == "priority") {
             s.campaign.scheduler =
                 switchsim::SchedulerType::kStrictPriority;
           } else if (v == "wrr") {
             s.campaign.scheduler =
                 switchsim::SchedulerType::kWeightedRoundRobin;
           } else {
             FMNET_CHECK(false, "option " + k +
                                    ": expected round-robin|priority|wrr, "
                                    "got '" +
                                    v + "'");
           }
         },
         [](const Scenario& s) -> std::string {
           switch (s.campaign.scheduler) {
             case switchsim::SchedulerType::kStrictPriority:
               return "priority";
             case switchsim::SchedulerType::kWeightedRoundRobin:
               return "wrr";
             case switchsim::SchedulerType::kRoundRobin:
               break;
           }
           return "round-robin";
         }});

    // --- dataset windowing ---
    defs.push_back({"data.window-ms",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      const auto w = parse_int(k, v);
                      FMNET_CHECK_GT(w, 0);
                      s.window_ms = static_cast<std::size_t>(w);
                    },
                    [](const Scenario& s) {
                      return fmt_int(
                          static_cast<std::int64_t>(s.window_ms));
                    }});
    defs.push_back({"data.factor",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      const auto f = parse_int(k, v);
                      FMNET_CHECK_GT(f, 0);
                      s.factor = static_cast<std::size_t>(f);
                    },
                    [](const Scenario& s) {
                      return fmt_int(static_cast<std::int64_t>(s.factor));
                    }});

    // --- model ---
    auto model_int = [](const char* key, std::int64_t nn::TransformerConfig::*m) {
      return OptionDef{
          key,
          [m](Scenario& s, const std::string& k, const std::string& v) {
            const auto parsed = parse_int(k, v);
            FMNET_CHECK_GT(parsed, 0);
            s.model.*m = parsed;
          },
          [m](const Scenario& s) { return fmt_int(s.model.*m); }};
    };
    defs.push_back(model_int("model.d-model",
                             &nn::TransformerConfig::d_model));
    defs.push_back(model_int("model.heads",
                             &nn::TransformerConfig::num_heads));
    defs.push_back(model_int("model.layers",
                             &nn::TransformerConfig::num_layers));
    defs.push_back(model_int("model.d-ff", &nn::TransformerConfig::d_ff));
    defs.push_back(model_int("model.max-seq-len",
                             &nn::TransformerConfig::max_seq_len));
    defs.push_back({"model.dropout",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      const double d = parse_real(k, v);
                      FMNET_CHECK(d >= 0.0 && d < 1.0,
                                  "option " + k + ": out of [0,1)");
                      s.model.dropout = static_cast<float>(d);
                    },
                    [](const Scenario& s) {
                      return fmt_float(s.model.dropout);
                    }});

    // --- training ---
    auto train_int = [](const char* key, int impute::TrainConfig::*m) {
      return OptionDef{
          key,
          [m](Scenario& s, const std::string& k, const std::string& v) {
            const auto parsed = parse_int(k, v);
            FMNET_CHECK_GT(parsed, 0);
            s.train.*m = static_cast<int>(parsed);
          },
          [m](const Scenario& s) {
            return fmt_int(static_cast<std::int64_t>(s.train.*m));
          }};
    };
    // `positive`: 0 is rejected too (a zero learning rate trains nothing;
    // a zero clip norm zeroes every gradient).
    auto train_float = [](const char* key, float impute::TrainConfig::*m,
                          bool positive = false) {
      return OptionDef{
          key,
          [m, positive](Scenario& s, const std::string& k,
                        const std::string& v) {
            const float parsed = parse_float(k, v);
            FMNET_CHECK(positive ? parsed > 0.0f : parsed >= 0.0f,
                        "option " + k + (positive ? ": must be > 0"
                                                  : ": must be >= 0"));
            s.train.*m = parsed;
          },
          [m](const Scenario& s) { return fmt_float(s.train.*m); }};
    };
    defs.push_back(train_int("train.epochs", &impute::TrainConfig::epochs));
    defs.push_back(
        train_int("train.batch", &impute::TrainConfig::batch_size));
    defs.push_back(
        train_int("train.micro-batch", &impute::TrainConfig::micro_batch));
    defs.push_back(
        train_float("train.lr", &impute::TrainConfig::lr, /*positive=*/true));
    defs.push_back(train_float("train.lr-final-fraction",
                               &impute::TrainConfig::lr_final_fraction));
    defs.push_back(train_float("train.grad-clip",
                               &impute::TrainConfig::grad_clip,
                               /*positive=*/true));
    defs.push_back(
        train_float("train.kal-mu", &impute::TrainConfig::kal_mu));
    defs.push_back(
        train_float("train.kal-weight", &impute::TrainConfig::kal_weight));
    defs.push_back({"train.loss",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      if (v == "emd") {
                        s.train.loss = impute::TrainConfig::Loss::kEmd;
                      } else if (v == "mse") {
                        s.train.loss = impute::TrainConfig::Loss::kMse;
                      } else {
                        FMNET_CHECK(false, "option " + k +
                                               ": expected emd|mse, got '" +
                                               v + "'");
                      }
                    },
                    [](const Scenario& s) {
                      return s.train.loss == impute::TrainConfig::Loss::kEmd
                                 ? "emd"
                                 : "mse";
                    }});
    defs.push_back({"train.seed",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      s.train.seed =
                          static_cast<std::uint64_t>(parse_int(k, v));
                    },
                    [](const Scenario& s) {
                      return fmt_int(
                          static_cast<std::int64_t>(s.train.seed));
                    }});

    // --- CEM / evaluation / methods ---
    defs.push_back({"cem.engine",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      if (v == "fast") {
                        s.cem.engine = impute::CemEngine::kFastRepair;
                      } else if (v == "smt") {
                        s.cem.engine =
                            impute::CemEngine::kSmtBranchAndBound;
                      } else {
                        FMNET_CHECK(false, "option " + k +
                                               ": expected fast|smt, got '" +
                                               v + "'");
                      }
                    },
                    [](const Scenario& s) {
                      return s.cem.engine == impute::CemEngine::kFastRepair
                                 ? "fast"
                                 : "smt";
                    }});
    defs.push_back({"eval.burst-threshold",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      const double f = parse_real(k, v);
                      FMNET_CHECK_GT(f, 0.0);
                      s.burst_threshold_fraction = f;
                    },
                    [](const Scenario& s) {
                      return fmt_real(s.burst_threshold_fraction);
                    }});
    defs.push_back(
        {"methods",
         [](Scenario& s, const std::string& k, const std::string& v) {
           std::vector<std::string> methods;
           for (const auto& part : fmnet::split(v, ',')) {
             const std::string m = trim(part);
             if (m.empty()) continue;
             FMNET_CHECK(impute::Registry::is_known(m),
                         "option " + k + ": unknown method '" + m + "'");
             methods.push_back(m);
           }
           FMNET_CHECK(!methods.empty(), "option " + k + ": empty list");
           s.methods = std::move(methods);
         },
         [](const Scenario& s) { return fmnet::join(s.methods, ","); }});

    // --- telemetry fault injection (faults/faults.h) ---
    // Appended after every pre-existing key so the emit() ranges used as
    // cache-key material by canonical_campaign/dataset/training are
    // unchanged for clean scenarios.
    auto fault_rate = [](const char* key, double faults::FaultConfig::*m) {
      return OptionDef{
          key,
          [m](Scenario& s, const std::string& k, const std::string& v) {
            const double r = parse_real(k, v);
            FMNET_CHECK(r >= 0.0 && r <= 1.0,
                        "option " + k + ": rate out of [0,1]");
            s.faults.*m = r;
          },
          [m](const Scenario& s) { return fmt_real(s.faults.*m); }};
    };
    defs.push_back({"faults.seed",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      s.faults.seed =
                          static_cast<std::uint64_t>(parse_int(k, v));
                    },
                    [](const Scenario& s) {
                      return fmt_int(
                          static_cast<std::int64_t>(s.faults.seed));
                    }});
    defs.push_back({"faults.severity",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      const double sev = parse_real(k, v);
                      FMNET_CHECK_GE(sev, 0.0);
                      s.faults.severity = sev;
                    },
                    [](const Scenario& s) {
                      return fmt_real(s.faults.severity);
                    }});
    defs.push_back(fault_rate("faults.periodic-drop",
                              &faults::FaultConfig::periodic_drop));
    defs.push_back(
        fault_rate("faults.lanz-drop", &faults::FaultConfig::lanz_drop));
    defs.push_back(
        fault_rate("faults.lanz-late", &faults::FaultConfig::lanz_late));
    defs.push_back(
        fault_rate("faults.snmp-jitter", &faults::FaultConfig::snmp_jitter));
    defs.push_back({"faults.snmp-wrap-bits",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      const auto bits = parse_int(k, v);
                      FMNET_CHECK(bits >= 0 && bits <= 32,
                                  "option " + k + ": bits out of [0,32]");
                      s.faults.snmp_wrap_bits = bits;
                    },
                    [](const Scenario& s) {
                      return fmt_int(s.faults.snmp_wrap_bits);
                    }});
    defs.push_back(
        fault_rate("faults.duplicate", &faults::FaultConfig::duplicate));
    defs.push_back(
        fault_rate("faults.reorder", &faults::FaultConfig::reorder));
    defs.push_back({"faults.noise",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      const double n = parse_real(k, v);
                      FMNET_CHECK_GE(n, 0.0);
                      s.faults.noise = n;
                    },
                    [](const Scenario& s) {
                      return fmt_real(s.faults.noise);
                    }});
    defs.push_back({"faults.quantize",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      const auto q = parse_int(k, v);
                      FMNET_CHECK_GE(q, 0);
                      s.faults.quantize = q;
                    },
                    [](const Scenario& s) {
                      return fmt_int(s.faults.quantize);
                    }});

    // --- leaf-spine fabric (fabric/fabric.h) ---
    // Appended after every pre-existing key (same discipline as faults):
    // the emit() ranges feeding single-switch cache keys stay byte
    // identical, and canonical_fabric() joins fabric cache keys only when
    // the fabric is enabled.
    auto fabric_count = [](const char* key,
                           std::int64_t fabric::FabricConfig::*m,
                           std::int64_t min_value) {
      return OptionDef{
          key,
          [m, min_value](Scenario& s, const std::string& k,
                         const std::string& v) {
            const auto parsed = parse_int(k, v);
            FMNET_CHECK_GE(parsed, min_value);
            s.fabric.*m = parsed;
          },
          [m](const Scenario& s) { return fmt_int(s.fabric.*m); }};
    };
    defs.push_back(
        fabric_count("fabric.leaves", &fabric::FabricConfig::leaves, 0));
    defs.push_back(
        fabric_count("fabric.spines", &fabric::FabricConfig::spines, 0));
    defs.push_back(fabric_count("fabric.hosts-per-leaf",
                                &fabric::FabricConfig::hosts_per_leaf, 1));
    defs.push_back(fabric_count("fabric.link-capacity",
                                &fabric::FabricConfig::link_capacity, 1));
    defs.push_back(fabric_count("fabric.link-delay-ms",
                                &fabric::FabricConfig::link_delay_ms, 1));
    defs.push_back(fabric_count("fabric.faults-switch",
                                &fabric::FabricConfig::faults_switch, -1));

    // --- serving core (serve/config.h) ---
    // Appended after every pre-existing key (same discipline as faults and
    // fabric). serve.* keys never join cache-key material: serving replays
    // an already-trained scenario, so server knobs must not invalidate
    // campaign/dataset/checkpoint artifacts.
    auto serve_count = [](const char* key,
                          std::int64_t serve::ServeConfig::*m,
                          std::int64_t min_value) {
      return OptionDef{
          key,
          [m, min_value](Scenario& s, const std::string& k,
                         const std::string& v) {
            const auto parsed = parse_int(k, v);
            FMNET_CHECK_GE(parsed, min_value);
            s.serve.*m = parsed;
          },
          [m](const Scenario& s) { return fmt_int(s.serve.*m); }};
    };
    defs.push_back(
        serve_count("serve.sessions", &serve::ServeConfig::sessions, 0));
    defs.push_back(
        serve_count("serve.ticks", &serve::ServeConfig::ticks, 1));
    defs.push_back({"serve.interval-ms",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      const double ms = parse_real(k, v);
                      FMNET_CHECK_GT(ms, 0.0);
                      s.serve.interval_ms = ms;
                    },
                    [](const Scenario& s) {
                      return fmt_real(s.serve.interval_ms);
                    }});
    defs.push_back(
        serve_count("serve.max-batch", &serve::ServeConfig::max_batch, 1));
    defs.push_back(serve_count("serve.max-delay-ticks",
                               &serve::ServeConfig::max_delay_ticks, 0));
    defs.push_back(serve_count("serve.queue-budget",
                               &serve::ServeConfig::queue_budget, 1));
    defs.push_back(serve_count("serve.repair-budget",
                               &serve::ServeConfig::repair_budget, 0));
    defs.push_back({"serve.repair",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      const auto b = parse_int(k, v);
                      FMNET_CHECK(b == 0 || b == 1,
                                  "option " + k + ": expected 0|1");
                      s.serve.repair = b == 1;
                    },
                    [](const Scenario& s) {
                      return fmt_int(s.serve.repair ? 1 : 0);
                    }});

    // --- autoencoder architecture (impute/networks.h) ---
    // Appended after every pre-existing key (same discipline as faults,
    // fabric and serve): canonical_training splices these in only for
    // autoencoder-family methods, so transformer checkpoints and every
    // older cache key stay byte identical.
    auto ae_dim = [](const char* key,
                     std::int64_t impute::AutoencoderConfig::*m) {
      return OptionDef{
          key,
          [m](Scenario& s, const std::string& k, const std::string& v) {
            const auto parsed = parse_int(k, v);
            FMNET_CHECK_GT(parsed, 0);
            s.autoencoder.*m = parsed;
          },
          [m](const Scenario& s) { return fmt_int(s.autoencoder.*m); }};
    };
    defs.push_back(ae_dim("impute.autoencoder.hidden",
                          &impute::AutoencoderConfig::hidden));
    defs.push_back(ae_dim("impute.autoencoder.latent",
                          &impute::AutoencoderConfig::latent));
    defs.push_back({"impute.autoencoder.penalty-weight",
                    [](Scenario& s, const std::string& k,
                       const std::string& v) {
                      const float w = parse_float(k, v);
                      FMNET_CHECK_GE(w, 0.0f);
                      s.autoencoder.penalty_weight = w;
                    },
                    [](const Scenario& s) {
                      return fmt_float(s.autoencoder.penalty_weight);
                    }});

    // --- C4 network-calculus envelope (tasks/netcalc.h) ---
    // Pure evaluation inputs: like serve.*, these never join cache keys
    // (re-running with a tighter envelope must hit every artifact).
    auto c4_real = [](const char* key, double tasks::C4Config::*m) {
      return OptionDef{
          key,
          [m](Scenario& s, const std::string& k, const std::string& v) {
            const double parsed = parse_real(k, v);
            FMNET_CHECK_GE(parsed, 0.0);
            s.c4.*m = parsed;
          },
          [m](const Scenario& s) { return fmt_real(s.c4.*m); }};
    };
    defs.push_back(
        c4_real("metrics.c4.arrival-burst", &tasks::C4Config::arrival_burst));
    defs.push_back(
        c4_real("metrics.c4.arrival-rate", &tasks::C4Config::arrival_rate));
    defs.push_back(
        c4_real("metrics.c4.latency-ms", &tasks::C4Config::latency_ms));
    return defs;
  }();
  return kDefs;
}

/// Section names a scenario file may open with `[section]` — exactly the
/// dotted prefixes of the option table, so a new option family is
/// automatically a valid section.
bool is_known_section(const std::string& section) {
  static const std::vector<std::string> kSections = [] {
    std::vector<std::string> out;
    for (const auto& def : option_defs()) {
      const std::string key = def.key;
      const auto dot = key.find('.');
      if (dot == std::string::npos) continue;
      const std::string prefix = key.substr(0, dot);
      if (std::find(out.begin(), out.end(), prefix) == out.end()) {
        out.push_back(prefix);
      }
    }
    return out;
  }();
  return std::find(kSections.begin(), kSections.end(), section) !=
         kSections.end();
}

std::string emit(const Scenario& s, const char* first_key,
                 const char* last_key) {
  std::ostringstream os;
  bool in_range = false;
  for (const auto& def : option_defs()) {
    if (std::string_view(def.key) == first_key) in_range = true;
    if (in_range) os << def.key << " = " << def.get(s) << "\n";
    if (std::string_view(def.key) == last_key) break;
  }
  return os.str();
}

}  // namespace

Scenario::Scenario() {
  model.input_channels = telemetry::kNumInputChannels;
}

void apply_scenario_option(Scenario& s, const std::string& key,
                           const std::string& value) {
  for (const auto& def : option_defs()) {
    if (key == def.key) {
      def.set(s, key, trim(value));
      return;
    }
  }
  FMNET_CHECK(false, "unknown scenario option: " + key);
}

const std::vector<std::string>& scenario_option_keys() {
  static const std::vector<std::string> kKeys = [] {
    std::vector<std::string> keys;
    for (const auto& def : option_defs()) keys.push_back(def.key);
    return keys;
  }();
  return kKeys;
}

Scenario parse_scenario(std::istream& in, const std::string& origin) {
  Scenario s;
  std::string section;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      FMNET_CHECK(line.back() == ']',
                  origin + ":" + std::to_string(lineno) +
                      ": malformed section header " + line);
      section = trim(line.substr(1, line.size() - 2));
      // Reject unknown sections at the header, not at the first key:
      // an unrecognised empty section (e.g. a typo'd [serv]) used to
      // silently no-op when every key under it was fully qualified.
      FMNET_CHECK(is_known_section(section),
                  origin + ":" + std::to_string(lineno) +
                      ": unknown scenario section [" + section + "]");
      continue;
    }
    const auto eq = line.find('=');
    FMNET_CHECK(eq != std::string::npos,
                origin + ":" + std::to_string(lineno) +
                    ": expected key = value, got '" + line + "'");
    std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    FMNET_CHECK(!key.empty(), origin + ":" + std::to_string(lineno) +
                                  ": empty option key");
    // Unqualified keys inside a [section] get the section prefix; `name`
    // and `methods` are top-level keys in any section.
    if (!section.empty() && key.find('.') == std::string::npos &&
        key != "name" && key != "methods") {
      key = section + "." + key;
    }
    try {
      apply_scenario_option(s, key, value);
    } catch (const CheckError& e) {
      // Re-anchor option errors (unknown key, bad value, unknown method) at
      // the offending line: "scenario.scn:12: unknown scenario option: ...".
      throw CheckError(origin + ":" + std::to_string(lineno) + ": " +
                       e.what());
    }
  }
  return s;
}

Scenario parse_scenario_string(const std::string& text) {
  std::istringstream in(text);
  return parse_scenario(in, "<string>");
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  FMNET_CHECK(in.good(), "cannot open scenario file " + path);
  return parse_scenario(in, path);
}

impute::MethodParams method_params(const Scenario& s,
                                   util::ThreadPool* pool) {
  impute::MethodParams params;
  params.model = s.model;
  params.train = s.train;
  params.autoencoder = s.autoencoder;
  params.autoencoder.window = static_cast<std::int64_t>(s.window_ms);
  params.cem = s.cem;
  params.pool = pool;
  return params;
}

std::string canonical_scenario(const Scenario& s) {
  // Full round trip: every option key — faults, fabric, serve, autoencoder
  // and C4 included — so parse(canonical(s)) == s for any s (fuzz-tested
  // fixpoint).
  return emit(s, "name", "metrics.c4.latency-ms");
}

std::string canonical_campaign(const CampaignConfig& c) {
  // shard_ms is part of the content identity: shards are seeded with
  // derive_stream_seed(seed, shard_index), so a sharded campaign differs
  // from the contiguous one with the same seed.
  Scenario tmp;
  tmp.campaign = c;
  return emit(tmp, "campaign.seed", "campaign.scheduler");
}

std::string canonical_dataset(const Scenario& s) {
  return canonical_campaign(s.campaign) +
         emit(s, "data.window-ms", "data.factor") + canonical_faults(s);
}

std::string canonical_faults(const Scenario& s) {
  // Disabled fault injection contributes nothing: the dataset (and every
  // artifact chained off it) keys exactly as it did before faults existed,
  // so clean runs keep hitting pre-fault caches.
  if (!s.faults.enabled()) return "";
  return emit(s, "faults.seed", "faults.quantize");
}

std::string canonical_training(const Scenario& s,
                               const std::string& method) {
  std::string out =
      canonical_dataset(s) + emit(s, "model.d-model", "train.seed");
  // Architecture keys join checkpoint material only for the family that
  // reads them: tweaking the autoencoder must not retrain transformers,
  // and non-autoencoder keys hash exactly as they did before the second
  // family existed.
  if (impute::Registry::base_method(method) == "autoencoder") {
    out += emit(s, "impute.autoencoder.hidden",
                "impute.autoencoder.penalty-weight");
  }
  return out + "method = " + method + "\n";
}

std::string canonical_fabric(const Scenario& s) {
  // Disabled fabric contributes nothing (single-switch scenarios key as
  // before the fabric existed). fabric.faults-switch is excluded on
  // purpose — see the header comment.
  if (!s.fabric.enabled()) return "";
  return emit(s, "fabric.leaves", "fabric.link-delay-ms");
}

}  // namespace fmnet::core
