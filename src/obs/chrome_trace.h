// Chrome trace_event JSON export (Perfetto / chrome://tracing loadable).
//
// Renders the trace view of chronological stored facts in the trace_event
// object format: exception windows and syscall windows become B/E duration
// spans on their own lanes, point events (auth failures, key writes, context
// switches, stage-2 faults, ...) become "i" instants. Timestamps are guest
// cycles reported as microseconds, so one trace "us" == one simulated cycle.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.h"

namespace camo::obs {

/// Render the trace view (for_each_trace_record) of `events` (facts in
/// chronological order, e.g. Ring::snapshot()) as a complete Chrome
/// trace_event JSON document. Tolerates truncated streams (ring
/// wraparound): unmatched E/exit events at depth 0 are skipped, and any
/// spans still open at the end are closed at the last timestamp.
std::string chrome_trace_json(const std::vector<Event>& events);

}  // namespace camo::obs
