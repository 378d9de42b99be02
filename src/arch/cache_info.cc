#include "src/arch/cache_info.h"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/util/env.h"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#include <cpuid.h>
#define FMM_ARCH_X86 1
#endif

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace fmm::arch {
namespace {

#if defined(FMM_ARCH_X86)

// One deterministic-cache-parameters subleaf (Intel leaf 4 / AMD leaf
// 0x8000001D share the encoding).
struct CpuidCacheLevel {
  int level = 0;
  bool data = false;  // data or unified
  long bytes = 0;
  int line = 0;
  int ways = 0;
  int sharing = 1;  // max logical CPUs sharing this cache
};

bool read_cpuid_cache_level(unsigned leaf, unsigned subleaf,
                            CpuidCacheLevel* out) {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(leaf, subleaf, &eax, &ebx, &ecx, &edx)) return false;
  const unsigned type = eax & 0x1f;
  if (type == 0) return false;              // no more caches
  out->data = (type == 1 || type == 3);     // data or unified
  out->level = (eax >> 5) & 0x7;
  const long ways = ((ebx >> 22) & 0x3ff) + 1;
  const long partitions = ((ebx >> 12) & 0x3ff) + 1;
  const long line = (ebx & 0xfff) + 1;
  const long sets = static_cast<long>(ecx) + 1;
  out->bytes = ways * partitions * line * sets;
  out->line = static_cast<int>(line);
  out->ways = static_cast<int>(ways);
  out->sharing = static_cast<int>(((eax >> 14) & 0xfff) + 1);
  return true;
}

// Fills sizes from cpuid; returns true when an L1d and an L2 were found.
bool detect_via_cpuid(CacheTopology* topo) {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(0, &eax, &ebx, &ecx, &edx)) return false;
  const unsigned max_leaf = eax;

  // Prefer Intel leaf 4; fall back to the AMD equivalent.
  unsigned cache_leaf = 0;
  if (max_leaf >= 4) {
    CpuidCacheLevel probe;
    if (read_cpuid_cache_level(4, 0, &probe)) cache_leaf = 4;
  }
  if (cache_leaf == 0 && __get_cpuid(0x80000000u, &eax, &ebx, &ecx, &edx) &&
      eax >= 0x8000001du) {
    CpuidCacheLevel probe;
    if (read_cpuid_cache_level(0x8000001du, 0, &probe)) {
      cache_leaf = 0x8000001du;
    }
  }
  if (cache_leaf == 0) return false;

  bool have_l1 = false, have_l2 = false;
  for (unsigned sub = 0; sub < 16; ++sub) {
    CpuidCacheLevel lvl;
    if (!read_cpuid_cache_level(cache_leaf, sub, &lvl)) break;
    if (!lvl.data) continue;
    switch (lvl.level) {
      case 1:
        topo->l1d_bytes = lvl.bytes;
        topo->line_bytes = lvl.line;
        topo->l1d_ways = lvl.ways;
        have_l1 = true;
        break;
      case 2:
        topo->l2_bytes = lvl.bytes;
        have_l2 = true;
        break;
      case 3:
        topo->l3_bytes = lvl.bytes;
        topo->l3_sharing = lvl.sharing;
        break;
      default:
        break;
    }
  }
  return have_l1 && have_l2;
}

std::string cpuid_brand_string() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(0x80000000u, &eax, &ebx, &ecx, &edx) ||
      eax < 0x80000004u) {
    return {};
  }
  char brand[49] = {0};
  unsigned* words = reinterpret_cast<unsigned*>(brand);
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &eax, &ebx, &ecx, &edx);
    words[leaf * 4 + 0] = eax;
    words[leaf * 4 + 1] = ebx;
    words[leaf * 4 + 2] = ecx;
    words[leaf * 4 + 3] = edx;
  }
  // Trim the leading/trailing padding Intel puts in the brand string.
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  const auto last = s.find_last_not_of(' ');
  if (first == std::string::npos) return {};
  return s.substr(first, last - first + 1);
}

#endif  // FMM_ARCH_X86

// --- Linux sysfs fallback -------------------------------------------------

long parse_sysfs_size(const std::string& text) {
  // Format: "<number>K" (occasionally M).
  long value = 0;
  char unit = '\0';
  if (std::sscanf(text.c_str(), "%ld%c", &value, &unit) < 1) return 0;
  if (unit == 'K' || unit == 'k') return value * 1024;
  if (unit == 'M' || unit == 'm') return value * 1024 * 1024;
  return value;
}

bool read_sysfs_file(const std::string& path, std::string* out) {
  std::ifstream f(path);
  if (!f) return false;
  std::getline(f, *out);
  return !out->empty();
}

// Number of CPUs named by a shared_cpu_list like "0-3,8-11".
int count_cpu_list(const std::string& list) {
  int count = 0;
  std::stringstream ss(list);
  std::string range;
  while (std::getline(ss, range, ',')) {
    long lo = 0, hi = 0;
    if (std::sscanf(range.c_str(), "%ld-%ld", &lo, &hi) == 2) {
      count += static_cast<int>(hi - lo + 1);
    } else if (!range.empty()) {
      count += 1;
    }
  }
  return count > 0 ? count : 1;
}

bool detect_via_sysfs(CacheTopology* topo) {
  bool have_l1 = false, have_l2 = false;
  // Scan indexN until the entries stop existing rather than hard-capping at
  // index7: CPUs with more cache levels/instances (or sparse numbering)
  // would otherwise silently lose their L3.  A directory whose files are
  // all unreadable counts as absent; a few consecutive absences end the
  // scan (tolerating numbering gaps), with a generous hard stop as a
  // backstop against pathological trees.
  constexpr int kMaxIndices = 64;
  constexpr int kMaxConsecutiveMissing = 4;
  int missing_streak = 0;
  for (int index = 0; index < kMaxIndices; ++index) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::string level_s, type, size_s;
    const bool has_level = read_sysfs_file(base + "/level", &level_s);
    const bool has_type = read_sysfs_file(base + "/type", &type);
    const bool has_size = read_sysfs_file(base + "/size", &size_s);
    if (!has_level && !has_type && !has_size) {
      if (++missing_streak >= kMaxConsecutiveMissing) break;
      continue;
    }
    missing_streak = 0;
    if (!has_level || !has_type || !has_size) continue;  // partial entry
    if (type != "Data" && type != "Unified") continue;
    const int level = static_cast<int>(
        parse_long_strict(level_s.c_str(), 1, 16).value_or(0));
    const long bytes = parse_sysfs_size(size_s);
    if (level <= 0 || bytes <= 0) continue;
    std::string line_s;
    if (level == 1) {
      topo->l1d_bytes = bytes;
      if (read_sysfs_file(base + "/coherency_line_size", &line_s)) {
        const int line = static_cast<int>(
            parse_long_strict(line_s.c_str(), 1, 1 << 16).value_or(0));
        if (line > 0) topo->line_bytes = line;
      }
      std::string ways_s;
      if (read_sysfs_file(base + "/ways_of_associativity", &ways_s)) {
        const int ways = static_cast<int>(
            parse_long_strict(ways_s.c_str(), 1, 1 << 16).value_or(0));
        if (ways > 0) topo->l1d_ways = ways;
      }
      have_l1 = true;
    } else if (level == 2) {
      topo->l2_bytes = bytes;
      have_l2 = true;
    } else if (level == 3) {
      topo->l3_bytes = bytes;
      std::string shared;
      if (read_sysfs_file(base + "/shared_cpu_list", &shared)) {
        topo->l3_sharing = count_cpu_list(shared);
      }
    }
  }
  return have_l1 && have_l2;
}

bool detect_via_sysconf(CacheTopology* topo) {
#if defined(_SC_LEVEL1_DCACHE_SIZE) && defined(_SC_LEVEL2_CACHE_SIZE)
  const long l1 = sysconf(_SC_LEVEL1_DCACHE_SIZE);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l1 <= 0 || l2 <= 0) return false;
  topo->l1d_bytes = l1;
  topo->l2_bytes = l2;
#if defined(_SC_LEVEL3_CACHE_SIZE)
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) topo->l3_bytes = l3;
#endif
#if defined(_SC_LEVEL1_DCACHE_LINESIZE)
  const long line = sysconf(_SC_LEVEL1_DCACHE_LINESIZE);
  if (line > 0) topo->line_bytes = static_cast<int>(line);
#endif
#if defined(_SC_LEVEL1_DCACHE_ASSOC)
  const long ways = sysconf(_SC_LEVEL1_DCACHE_ASSOC);
  if (ways > 0) topo->l1d_ways = static_cast<int>(ways);
#endif
  return true;
#else
  (void)topo;
  return false;
#endif
}

std::string fallback_cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown-cpu";
}

}  // namespace

CacheTopology ivy_bridge_topology() {
  CacheTopology t;
  t.l1d_bytes = 32 * 1024;
  t.l2_bytes = 256 * 1024;
  t.l3_bytes = 25 * 1024 * 1024;
  t.line_bytes = 64;
  t.l1d_ways = 8;
  t.l3_sharing = 10;
  t.detected = false;
  t.source = "default";
  t.cpu_model = "default-ivy-bridge";
  return t;
}

CacheTopology detect_cache_topology() {
  CacheTopology topo;
#if defined(FMM_ARCH_X86)
  if (detect_via_cpuid(&topo)) {
    topo.detected = true;
    topo.source = "cpuid";
  }
  topo.cpu_model = cpuid_brand_string();
#endif
  if (!topo.detected && detect_via_sysfs(&topo)) {
    topo.detected = true;
    topo.source = "sysfs";
  }
  if (!topo.detected && detect_via_sysconf(&topo)) {
    topo.detected = true;
    topo.source = "sysconf";
  }
  if (topo.cpu_model.empty()) topo.cpu_model = fallback_cpu_model();
  if (topo.l3_sharing < 1) topo.l3_sharing = 1;
  if (topo.l1d_ways < 1) topo.l1d_ways = 8;
  if (!topo.detected || !topo.plausible()) {
    // Unknown machine: substitute the geometry the paper's constants
    // assume, so derived blocking lands on the proven legacy values.
    const std::string model =
        topo.cpu_model.empty() ? "unknown-cpu" : topo.cpu_model;
    topo = ivy_bridge_topology();
    topo.cpu_model = model;
  }
  return topo;
}

const CacheTopology& cache_topology() {
  static const CacheTopology topo = detect_cache_topology();
  return topo;
}

}  // namespace fmm::arch
