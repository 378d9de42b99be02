#pragma once

// Cache-topology detection for the hardware-adaptation layer.
//
// The paper's blocking constants (m_C = 96, k_C = 256, n_C = 4092) encode
// one machine: the 2013 Ivy Bridge Xeon of §5.  Everything downstream that
// wants to *derive* blocking instead of hard-coding it needs the cache
// geometry of the machine it actually runs on; this module provides it.
//
// Detection strategy, strongest first:
//   1. cpuid on x86: deterministic cache parameters (Intel leaf 4, AMD
//      leaf 0x8000001D), which also report how many logical CPUs share
//      each level.
//   2. Linux sysfs (/sys/devices/system/cpu/cpu0/cache/index*/...).
//   3. POSIX sysconf(_SC_LEVEL*_CACHE_SIZE) where glibc provides it.
//   4. Conservative defaults matching the paper's Ivy Bridge machine, so
//      an unknown CPU reproduces the legacy constants.
//
// The result is value-semantic and cheap to copy; derive_blocking()
// (src/gemm/blocking.h) consumes it, and unit tests pass hand-built
// topologies to exercise the derivation without depending on the host.

#include <string>

namespace fmm::arch {

struct CacheTopology {
  long l1d_bytes = 0;   // per-core L1 data cache
  long l2_bytes = 0;    // per-core (or per-module) unified L2
  long l3_bytes = 0;    // one L3 slice (0 when the CPU has no L3)
  int line_bytes = 64;  // cache line size
  int l1d_ways = 8;     // L1d associativity (blocking splits L1 by ways)
  int l3_sharing = 1;   // logical CPUs sharing one L3 slice (>= 1)
  bool detected = false;      // false: the defaults below were substituted
  std::string source;         // "cpuid", "sysfs", "sysconf", "default"
  std::string cpu_model;      // brand string; keys the calibration cache

  bool plausible() const {
    return l1d_bytes > 0 && l2_bytes >= l1d_bytes && line_bytes > 0;
  }
};

// The topology the paper's constants were tuned for; also the fallback
// when detection fails (32 KiB L1d, 256 KiB L2, 25 MiB L3 / 10 cores).
CacheTopology ivy_bridge_topology();

// Fresh detection (never cached); fields that could not be detected are
// filled from ivy_bridge_topology() and `detected` reports whether the
// *sizes* came from the machine.  Exposed for tests; library code should
// use cache_topology().
CacheTopology detect_cache_topology();

// The process-wide topology, detected once on first use.
const CacheTopology& cache_topology();

}  // namespace fmm::arch
