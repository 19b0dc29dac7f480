// lgbench — runs one benchmark workload against the program's public API
// and prints the raw measurements as one JSON document on stdout. run.py
// builds this binary, pins the environment, checks the outputs and turns
// the raw figures into the named metrics.
//
//   lgbench --workload inet70k|outage_repair|service_stream --seed N
//           --seconds S [--trace 0|1] [--spans-out FILE] [--scratch DIR]
//           [--threads T] [--setups R]
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"
#include "mem/rss.h"
#include "util/json.h"

namespace {

void usage() {
  std::cerr << "usage: lgbench --workload W --seed N --seconds S "
               "[--trace 0|1] [--spans-out FILE] [--scratch DIR] "
               "[--threads T] [--setups R]\n";
  std::exit(2);
}

lgb::Options parse(int argc, char** argv) {
  lgb::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--spans-out") o.spans_out = v;
    else if (a == "--scratch") o.scratch = v;
    else if (a == "--threads") o.threads = std::stoull(v);
    else if (a == "--setups") o.setups = std::stoull(v);
    else usage();
  }
  if (o.workload.empty() || o.seconds <= 0.0 || o.setups == 0 ||
      o.threads == 0) {
    usage();
  }
  return o;
}

void write_pairs(lg::util::JsonWriter& j, const std::string& key,
                 const std::vector<std::pair<std::string, double>>& v) {
  j.key(key).begin_object();
  for (const auto& [k, x] : v) j.kv(k, x);
  j.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  lgb::Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception&) {  // std::stoull / std::stod on garbage
    usage();
  }
  lgb::now_s();  // start the clock
  lgb::SpanLog spans(false);
  lgb::Result r;
  try {
    if (opt.workload == "inet70k") {
      lgb::run_inet70k(opt, spans, r);
    } else if (opt.workload == "outage_repair") {
      lgb::run_outage_repair(opt, spans, r);
    } else if (opt.workload == "service_stream") {
      lgb::run_service_stream(opt, spans, r);
    } else {
      std::cerr << "lgbench: unknown workload '" << opt.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "lgbench: " << opt.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  if (opt.trace && !opt.spans_out.empty() && !spans.write(opt.spans_out)) {
    std::cerr << "lgbench: cannot write " << opt.spans_out << "\n";
    return 1;
  }

  lg::util::JsonWriter j;
  j.begin_object();
  j.kv("workload", opt.workload);
  j.kv("seed", static_cast<std::uint64_t>(opt.seed));
  j.kv("trace", opt.trace);
  j.kv("peak_rss_mb", static_cast<double>(lg::mem::peak_rss_bytes()) /
                          (1024.0 * 1024.0));
  j.key("setup_s").begin_array();
  for (const double s : r.setup_s) j.value(s);
  j.end_array();
  j.key("setup_digest").begin_array();
  for (const auto& d : r.setup_digest) j.value(d);
  j.end_array();
  write_pairs(j, "figures", r.figures);
  j.key("info").begin_object();
  j.kv("compiler", LGB_COMPILER);
  j.kv("build_type", LGB_BUILD_TYPE);
  j.kv("hardware_threads",
       static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.kv("threads", static_cast<std::uint64_t>(opt.threads));
  for (const auto& [k, v] : r.info) j.kv(k, v);
  j.end_object();
  j.key("units").begin_array();
  for (const lgb::Unit& u : r.units) {
    j.begin_object();
    j.kv("kind", u.kind);
    j.kv("wall_s", u.wall_s);
    j.kv("ok", u.ok);
    j.kv("traced", u.traced);
    j.kv("digest", u.digest);
    if (!u.ok) j.kv("why", u.why);
    write_pairs(j, "figures", u.figures);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  std::cout << j.str() << std::endl;
  return 0;
}
