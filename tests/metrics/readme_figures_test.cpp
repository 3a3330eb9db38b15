// The README's benchmark figures against the committed BENCH_*.json files.
//
// Every figure the README quotes from a committed benchmark artifact is one
// row below: a pattern that captures the printed number in README.md and the
// value the JSON holds for it.  The two must agree at the printed precision,
// so a regenerated JSON without the matching prose edit (or the reverse)
// fails here.  The README also may not quote a measured number for an
// artifact that is not committed.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

/// Just enough JSON for the bench artifacts.
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  const Json& operator[](const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return v;
    }
    throw std::runtime_error("missing JSON key: " + key);
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : s_(std::move(text)) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (i_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("JSON: ") + what + " at offset " +
                             std::to_string(i_));
  }
  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool eat_word(const char* w) {
    const std::string word(w);
    if (s_.compare(i_, word.size(), word) != 0) return false;
    i_ += word.size();
    return true;
  }
  std::string str() {
    if (!eat('"')) fail("expected a string");
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') ++i_;  // the artifacts escape nothing but quotes
      out += s_[i_++];
    }
    if (!eat('"')) fail("unterminated string");
    return out;
  }
  Json value() {
    skip_ws();
    Json v;
    if (i_ >= s_.size()) fail("unexpected end");
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      v.kind = Json::Kind::kObject;
      if (eat('}')) return v;
      do {
        std::string key = str();
        if (!eat(':')) fail("expected ':'");
        v.object.emplace_back(std::move(key), value());
      } while (eat(','));
      if (!eat('}')) fail("expected '}'");
    } else if (c == '[') {
      ++i_;
      v.kind = Json::Kind::kArray;
      if (eat(']')) return v;
      do {
        v.array.push_back(value());
      } while (eat(','));
      if (!eat(']')) fail("expected ']'");
    } else if (c == '"') {
      v.kind = Json::Kind::kString;
      v.string = str();
    } else if (eat_word("true")) {
      v.kind = Json::Kind::kBool;
      v.boolean = true;
    } else if (eat_word("false")) {
      v.kind = Json::Kind::kBool;
    } else if (eat_word("null")) {
      v.kind = Json::Kind::kNull;
    } else {
      std::size_t used = 0;
      v.kind = Json::Kind::kNumber;
      v.number = std::stod(s_.substr(i_), &used);
      i_ += used;
    }
    return v;
  }

  std::string s_;
  std::size_t i_ = 0;
};

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const std::filesystem::path kRoot = ESPICE_SOURCE_DIR;

Json load(const std::string& name) {
  return JsonParser(read_file(kRoot / name)).parse();
}

/// README.md with every whitespace run collapsed to one space, so patterns
/// match across line wraps.
std::string readme_flat() {
  const std::string raw = read_file(kRoot / "README.md");
  std::string out;
  for (const char c : raw) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (out.empty() || out.back() != ' ') out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// The element of `list` whose `key` field equals `value`.
const Json& where(const Json& list, const char* key, double value) {
  for (const Json& e : list.array) {
    if (e[key].number == value) return e;
  }
  throw std::runtime_error(std::string("no entry with ") + key + " = " +
                           std::to_string(value));
}

/// Batch ingest: batch `size` throughput over per-event push().
double batch_speedup(const Json& j, double size) {
  double per_event = 0.0;
  double batch = 0.0;
  for (const Json& run : j["runs"].array) {
    if (run["mode"].string == "per_event") {
      per_event = run["events_per_sec"].number;
    }
    if (run["mode"].string == "batch" && run["batch_size"].number == size) {
      batch = run["events_per_sec"].number;
    }
  }
  return batch / per_event;
}

const Json& sweep(const Json& j, double overlap) {
  return where(j["matcher_overlap_sweep"]["workloads"], "overlap", overlap);
}

struct Figure {
  const char* what;
  const char* json;
  /// Matches the figure in the flattened README; group 1 is the number.
  const char* pattern;
  std::function<double(const Json&)> value;
};

const std::vector<Figure>& figures() {
  static const std::vector<Figure> rows = {
      {"multi-query shared vs independent at K = 1", "BENCH_multi_query.json",
       R"(on one core; ([0-9.]+)× measured\))",
       [](const Json& j) {
         return j["acceptance"]["speedup_shared_vs_independent_k1"].number;
       }},
      {"batch 256 vs per-event (bench table)", "BENCH_batch_ingest.json",
       R"(with 2\+ cores; ([0-9.]+)× measured on one hardware thread)",
       [](const Json& j) {
         return j["acceptance"]["speedup_b256_vs_per_event"].number;
       }},
      {"batch 16 vs per-event", "BENCH_batch_ingest.json",
       R"(hardware thread: ([0-9.]+)×, [0-9.]+× and [0-9.]+× single-shard)",
       [](const Json& j) { return batch_speedup(j, 16); }},
      {"batch 64 vs per-event", "BENCH_batch_ingest.json",
       R"(hardware thread: [0-9.]+×, ([0-9.]+)× and [0-9.]+× single-shard)",
       [](const Json& j) { return batch_speedup(j, 64); }},
      {"batch 256 vs per-event", "BENCH_batch_ingest.json",
       R"(hardware thread: [0-9.]+×, [0-9.]+× and ([0-9.]+)× single-shard)",
       [](const Json& j) { return batch_speedup(j, 256); }},
      {"matcher speedup at overlap 32", "BENCH_window_engine.json",
       R"(; ([0-9.]+)× measured at overlap 32)",
       [](const Json& j) { return sweep(j, 32)["matcher_speedup"].number; }},
      {"matcher speedup at overlap 1", "BENCH_window_engine.json",
       R"(but ([0-9.]+)× at overlap 1,)",
       [](const Json& j) { return sweep(j, 1)["matcher_speedup"].number; }},
      {"incremental over batch matcher cost at overlap 1",
       "BENCH_window_engine.json",
       R"(the incremental matcher costs ([0-9.]+)× the rescan)",
       [](const Json& j) {
         const Json& w = sweep(j, 1);
         return w["incremental_matcher_ns_per_event"].number /
                w["batch_matcher_ns_per_event"].number;
       }},
      {"incremental matcher cost, overlap 32 over overlap 1",
       "BENCH_window_engine.json",
       R"(ns/event rises ([0-9.]+)× from overlap 1 to 32)",
       [](const Json& j) {
         return j["matcher_overlap_sweep"]["acceptance"]
                 ["incremental_matcher_ns_overlap32_over_overlap1"]
                     .number;
       }},
      {"window engine speedup at overlap 2", "BENCH_window_engine.json",
       R"(\(([0-9.]+)×, [0-9.]+× and [0-9.]+× end-to-end at overlap 2, 8)",
       [](const Json& j) {
         return where(j["workloads"], "overlap", 2)["speedup"].number;
       }},
      {"window engine speedup at overlap 8", "BENCH_window_engine.json",
       R"(\([0-9.]+×, ([0-9.]+)× and [0-9.]+× end-to-end at overlap 2, 8)",
       [](const Json& j) {
         return where(j["workloads"], "overlap", 8)["speedup"].number;
       }},
      {"window engine speedup at overlap 32", "BENCH_window_engine.json",
       R"(\([0-9.]+×, [0-9.]+× and ([0-9.]+)× end-to-end at overlap 2, 8)",
       [](const Json& j) {
         return where(j["workloads"], "overlap", 32)["speedup"].number;
       }},
      {"sharded K = 4 over K = 1", "BENCH_sharded_engine.json",
       R"(`k4_vs_k1_ratio`, ~([0-9.]+)× here)",
       [](const Json& j) { return j["acceptance"]["k4_vs_k1_ratio"].number; }},
  };
  return rows;
}

/// `value` printed with as many decimals as `printed` has.
std::string at_precision(double value, const std::string& printed) {
  const auto dot = printed.find('.');
  const int decimals =
      dot == std::string::npos ? 0 : static_cast<int>(printed.size() - dot - 1);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

TEST(ReadmeFigures, QuotedFiguresMatchCommittedJson) {
  const std::string readme = readme_flat();
  for (const Figure& f : figures()) {
    SCOPED_TRACE(f.what);
    std::smatch m;
    ASSERT_TRUE(std::regex_search(readme, m, std::regex(f.pattern)))
        << "README no longer quotes this figure; pattern: " << f.pattern;
    const std::string printed = m[1].str();
    EXPECT_EQ(printed, at_precision(f.value(load(f.json)), printed))
        << "README disagrees with " << f.json;
  }
}

TEST(ReadmeFigures, MeasuredNumbersOnlyForCommittedJson) {
  // A table row is one unit, any other run of non-blank lines (a
  // paragraph) another.
  std::vector<std::string> units;
  std::istringstream in(read_file(kRoot / "README.md"));
  std::string line;
  std::string para;
  auto flush = [&] {
    if (!para.empty()) units.push_back(para);
    para.clear();
  };
  while (std::getline(in, line)) {
    if (line.rfind("|", 0) == 0) {
      flush();
      units.push_back(line);
    } else if (line.find_first_not_of(" \t") == std::string::npos) {
      flush();
    } else {
      para += line + ' ';
    }
  }
  flush();

  const std::regex artifact(R"(BENCH_[A-Za-z0-9_]+\.json)");
  const std::regex measured(R"([0-9](?:[0-9.]*)\s*(?:%|×)\s+measured)");
  std::size_t checked = 0;
  for (const std::string& unit : units) {
    if (!std::regex_search(unit, measured)) continue;
    for (auto it = std::sregex_iterator(unit.begin(), unit.end(), artifact);
         it != std::sregex_iterator(); ++it) {
      ++checked;
      EXPECT_TRUE(std::filesystem::exists(kRoot / it->str()))
          << "README quotes a measured number for " << it->str()
          << ", which is not committed:\n"
          << unit;
    }
  }
  EXPECT_GT(checked, 0u) << "no measured figure found: vacuous check";
}

}  // namespace
