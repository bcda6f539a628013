// prtr-bench <figure>|all: reproduces a table, figure or study of the
// registry in bench/figures.hpp by name. `all` runs every figure to stdout
// and takes no path flag, so a path never names two documents. An unknown
// figure or argument, a malformed number, or an unhonoured flag exits 2.
#include <algorithm>
#include <exception>
#include <iostream>
#include <span>
#include <string>

#include "bench/figures.hpp"
#include "util/error.hpp"

namespace {

using namespace prtr;

/// The figures argv names. Throws util::DomainError on a usage error.
std::span<const bench::Figure> selectFigures(const bench::Options& options) {
  std::string name;
  for (const std::string& arg : options.rest()) {
    util::require(!arg.starts_with("-") && name.empty(),
                  "prtr-bench: unknown argument '" + arg + "'");
    name = arg;
  }
  util::require(!name.empty(), "prtr-bench: name a figure");
  options.reject({"--seed"}, "prtr-bench");
  if (name == "all") {
    options.reject({"--json", "--trace", "--profile"}, "prtr-bench all");
    return bench::figures();
  }
  const bench::Figure* figure = bench::findFigure(name);
  util::require(figure != nullptr, "prtr-bench: unknown figure '" + name + "'");
  if (!figure->traces) options.reject({"--trace"}, "prtr-bench " + name);
  return {figure, 1};
}

}  // namespace

int main(int argc, char** argv) {
  std::string figureList = "figures (`all` runs every one to stdout):\n";
  for (const bench::Figure& figure : bench::figures()) {
    std::string name{figure.name};
    name.resize(std::max<std::size_t>(name.size() + 1, 13), ' ');
    figureList += "  " + name + std::string{figure.summary} +
                  (figure.traces ? " [--trace]\n" : "\n");
  }
  const std::string usage =
      bench::Options::usage("prtr-bench <figure>|all", figureList);
  bench::Options options;
  std::span<const bench::Figure> selected;
  try {
    options = bench::Options::parse("prtr-bench", argc, argv);
    if (options.helpRequested()) {
      std::cout << usage;
      return 0;
    }
    selected = selectFigures(options);
  } catch (const util::DomainError& error) {
    return bench::usageError(error.what(), usage);
  }
  try {
    for (const bench::Figure& figure : selected) {
      if (&figure != selected.data()) std::cout << '\n';
      if (const int code = bench::runFigure(figure, options); code != 0) {
        return code;
      }
    }
  } catch (const std::exception& error) {
    std::cerr << "prtr-bench: " << error.what() << '\n';
    return 1;
  }
  return 0;
}
