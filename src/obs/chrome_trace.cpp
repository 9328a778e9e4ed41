#include "obs/chrome_trace.h"

#include <string_view>

#include "obs/json.h"

namespace camo::obs {

namespace {

constexpr uint64_t kPid = 1;
constexpr uint64_t kTidExc = 1;      ///< exception-window lane
constexpr uint64_t kTidSyscall = 2;  ///< syscall-window lane
constexpr uint64_t kTidPoints = 3;   ///< instant-event lane

}  // namespace

// Streams straight into the output: traces run to hundreds of thousands of
// events, and nothing edits an event after it is written. The member order
// and number rules are pinned byte-for-byte by ChromeTrace.GoldenBytes.
std::string chrome_trace_json(const std::vector<Event>& events) {
  json::Writer w;
  // An exported event takes 60-130 bytes and most rings are half sign/auth
  // facts, which are skipped.
  w.reserve(256 + 64 * events.size());
  // Opens an event object with the fields every row carries; the caller
  // adds the rest and closes it.
  const auto event = [&w](std::string_view name, const char* ph, uint64_t ts,
                          uint64_t tid) -> json::Writer& {
    return w.begin_object()
        .key("name").string(name)
        .key("ph").string(ph)
        .key("ts").number(ts)
        .key("pid").number(kPid)
        .key("tid").number(tid);
  };
  std::string name;  // reused for the composed event names
  const auto label = [&name](const char* prefix,
                             std::string_view rest) -> std::string_view {
    name.assign(prefix);
    name += rest;
    return name;
  };

  w.begin_object().key("traceEvents").begin_array();
  // Lane names first (metadata events; position in the array is irrelevant
  // but leading with them keeps the file easy to eyeball).
  const struct {
    uint64_t tid;
    const char* name;
  } lanes[] = {{kTidExc, "exceptions"},
               {kTidSyscall, "syscalls"},
               {kTidPoints, "events"}};
  for (const auto& lane : lanes)
    event("thread_name", "M", 0, lane.tid)
        .key("args").begin_object().key("name").string(lane.name)
        .end_object().end_object();

  int exc_depth = 0;
  int sys_depth = 0;
  uint64_t last_ts = 0;

  const auto row = [&](const Event& e) {
    if (e.cycles > last_ts) last_ts = e.cycles;
    switch (e.kind) {
      case EventKind::ExcEnter:
        event(exc_class_label(e.aux), "B", e.cycles, kTidExc)
            .key("args").begin_object()
            .key("pc").hex(e.pc)
            .key("from_el").number(uint64_t{e.el});
        if (e.imm) w.key("iss").number(uint64_t{e.imm});
        w.end_object().end_object();
        ++exc_depth;
        break;
      case EventKind::ExcExit:
        // Depth guard: a wrapped ring can start mid-window; an exit with no
        // recorded entry would unbalance the B/E stream.
        if (exc_depth > 0) {
          event("", "E", e.cycles, kTidExc).end_object();
          --exc_depth;
        }
        break;
      case EventKind::SyscallEnter:
        event(label("syscall ", std::to_string(e.imm)), "B", e.cycles,
              kTidSyscall)
            .end_object();
        ++sys_depth;
        break;
      case EventKind::SyscallExit:
        if (sys_depth > 0) {
          event("", "E", e.cycles, kTidSyscall).end_object();
          --sys_depth;
        }
        break;
      case EventKind::AuthFail:
        event(label("auth-fail ", pac_key_label(e.key)), "i", e.cycles,
              kTidPoints)
            .key("s").string("g")  // global-scope instant
            .key("args").begin_object()
            .key("ptr").hex(e.ptr)
            .key("modifier").hex(e.modifier)
            .end_object().end_object();
        break;
      case EventKind::KeyWrite:
        event(label("key-write ", pac_key_label(e.key)), "i", e.cycles,
              kTidPoints)
            .key("s").string("t").end_object();
        break;
      case EventKind::ContextSwitch:
        event("context-switch", "i", e.cycles, kTidPoints)
            .key("s").string("g")
            .key("args").begin_object()
            .key("prev").hex(e.ptr)
            .key("next").hex(e.ptr2)
            .end_object().end_object();
        break;
      case EventKind::Stage2Fault:
        event("stage2-fault", "i", e.cycles, kTidPoints)
            .key("s").string("g")
            .key("args").begin_object().key("va").hex(e.ptr)
            .end_object().end_object();
        break;
      case EventKind::HvcCall:
        event(label("hvc ", std::to_string(e.imm)), "i", e.cycles, kTidPoints)
            .key("s").string("t").end_object();
        break;
      case EventKind::ModuleLoad:
        event("module-load", "i", e.cycles, kTidPoints)
            .key("s").string("t").end_object();
        break;
      case EventKind::MsrDenied:
        event("msr-denied", "i", e.cycles, kTidPoints)
            .key("s").string("t").end_object();
        break;
      case EventKind::AttackOutcome:
        event(label("attack: ", outcome_label(e.aux)), "i", e.cycles,
              kTidPoints)
            .key("s").string("g").end_object();
        break;
      default:
        break;
    }
  };
  for (const Event& e : events) for_each_trace_record(e, row);

  // Close any spans the stream left open so viewers see complete windows.
  while (exc_depth-- > 0) event("", "E", last_ts, kTidExc).end_object();
  while (sys_depth-- > 0) event("", "E", last_ts, kTidSyscall).end_object();

  w.end_array()
      .key("displayTimeUnit").string("ns")
      .key("otherData").begin_object()
      .key("source").string("camo::obs")
      .key("time_unit").string("1 trace us == 1 guest cycle")
      .end_object()
      .end_object();
  return w.take();
}

}  // namespace camo::obs
