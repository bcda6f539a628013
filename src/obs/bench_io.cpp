#include "obs/bench_io.hpp"

#include <fstream>

#include "util/error.hpp"
#include "util/json.hpp"

namespace prtr::obs {

void BenchReport::scalar(const std::string& name, double value) {
  scalars_.emplace_back(name, value);
}

void BenchReport::scalar(const std::string& name, std::uint64_t value) {
  scalars_.emplace_back(name, static_cast<double>(value));
}

void BenchReport::note(const std::string& name, const std::string& text) {
  notes_.emplace_back(name, text);
}

void BenchReport::table(const std::string& name, const util::Table& table) {
  tables_.emplace_back(name, table);
}

void BenchReport::metrics(const MetricsSnapshot& snapshot) {
  metrics_.merge(snapshot);
}

void BenchReport::metrics(MetricsSnapshot&& snapshot) {
  metrics_.merge(std::move(snapshot));
}

int BenchReport::finish() const {
  if (!options_.jsonRequested()) return 0;
  std::ofstream file{options_.jsonPath()};
  if (!file) {
    throw util::Error{"BenchReport: cannot open " + options_.jsonPath() +
                      " for writing"};
  }
  util::json::Writer w{file};
  w.beginObject();
  w.key("bench").value(name_);
  w.key("scalars").beginObject();
  w.key("threads").value(static_cast<double>(options_.threads()));
  for (const auto& [name, value] : scalars_) w.key(name).value(value);
  w.endObject();
  w.key("notes").beginObject();
  for (const auto& [name, text] : notes_) w.key(name).value(text);
  w.endObject();
  w.key("tables").beginObject();
  for (const auto& [name, table] : tables_) {
    w.key(name).beginObject();
    w.key("header").beginArray();
    for (const std::string& cell : table.header()) w.value(cell);
    w.endArray();
    w.key("rows").beginArray();
    for (std::size_t r = 0; r < table.rowCount(); ++r) {
      w.beginArray();
      for (const std::string& cell : table.rowAt(r)) w.value(cell);
      w.endArray();
    }
    w.endArray();
    w.endObject();
  }
  w.endObject();
  w.key("metrics");
  metrics_.writeJson(w);
  w.endObject();
  file << '\n';
  return 0;
}

}  // namespace prtr::obs
