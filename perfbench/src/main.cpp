// perfbench: runs one workload of the wall-clock benchmark and prints its
// metrics, then one JSON object as the last line of standard output.
//
//   perfbench --workload sim-zipf --seed 1 --seconds 10 --trace 0
//
// Exit status: 0 when every answer and accounting identity checked out,
// 1 when any did not (the JSON line says "correct": false), 2 on a usage
// or runtime error (no JSON line).
#include <sched.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "workloads.hpp"

namespace {

/// Per-CPU (steal, busy) jiffies from /proc/stat.
std::map<int, std::pair<std::uint64_t, std::uint64_t>> cpu_times() {
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> out;
  std::ifstream f("/proc/stat");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 ||
        line[3] < '0' || line[3] > '9')
      continue;
    std::istringstream in(line.substr(3));
    int cpu = 0;
    std::uint64_t user = 0, nice = 0, sys = 0, idle = 0, iowait = 0, irq = 0,
                  softirq = 0, steal = 0;
    in >> cpu >> user >> nice >> sys >> idle >> iowait >> irq >> softirq >>
        steal;
    out[cpu] = {steal, user + nice + sys + irq + softirq};
  }
  return out;
}

/// Pins the process, before it starts any thread, to the allowed CPU the
/// hypervisor and other processes took least from over a short sample. On
/// a shared VM a descheduled vCPU stalls every cross-CPU wakeup between the
/// TCP runtime's io thread and dispatch strand: tcp-zipf ran up to 3x slower
/// in stretches of steal time when its threads spread over several CPUs.
/// On one CPU those handoffs are plain context switches. Returns the CPU, or
/// -1 if the process keeps its affinity.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  const auto before = cpu_times();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  int best = -1;
  std::pair<std::uint64_t, std::uint64_t> best_load;
  for (const auto& [cpu, now] : cpu_times()) {
    const auto it = before.find(cpu);
    if (cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &allowed) || it == before.end())
      continue;
    const std::pair<std::uint64_t, std::uint64_t> load{
        now.first - it->second.first, now.second - it->second.second};
    if (best < 0 || load < best_load) {
      best = cpu;
      best_load = load;
    }
  }
  if (best < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? best : -1;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <sim-zipf|tcp-zipf|"
               "sim-unique-write> [--seed N] [--seconds S] [--trace 0|1]\n");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      cfg.trace = std::string(value) == "1";
    } else {
      usage();
      return 2;
    }
  }
  if (cfg.workload.empty() || cfg.seconds <= 0) {
    usage();
    return 2;
  }

  const int cpu = pin_to_one_cpu();
  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  for (const auto& m : r.metrics)
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  r.info.emplace_back("cpu", std::to_string(cpu));
  for (const auto& [key, value] : r.info)
    std::printf("  %-34s %s\n", key.c_str(), value.c_str());
  for (const auto& e : r.errors) std::printf("  ERROR %s\n", e.c_str());

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", r.metrics[i].value);
    json += (i ? ", \"" : "\"") + r.metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  json += "}, \"info\": {";
  for (std::size_t i = 0; i < r.info.size(); ++i)
    json += (i ? ", \"" : "\"") + r.info[i].first + "\": \"" +
            json_escape(r.info[i].second) + "\"";
  json += "}, \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i)
    json += (i ? ", \"" : "\"") + json_escape(r.errors[i]) + "\"";
  json += "]}";
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
