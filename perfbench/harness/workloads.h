// The benchmark workloads.  Each builds its inputs from the seed,
// measures for Options::seconds, checks its outputs and fills a Report.
#pragma once

#include "harness/common.h"

namespace pb {

Report run_live_mix(const Options& options);
Report run_pcap_scan(const Options& options);

}  // namespace pb
