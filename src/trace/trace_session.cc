#include "trace/trace_session.h"

#include <cstdarg>

#include "common/logging.h"

namespace lob {

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out->append(buf);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

const char* KindCategory(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp:
      return "op";
    case SpanKind::kPhase:
      return "phase";
    case SpanKind::kIo:
      return "io";
  }
  return "phase";
}

}  // namespace

uint32_t TraceSession::InternName(std::string_view name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(std::string(name), id);
  return id;
}

size_t TraceSession::BeginSpan(std::string_view name, SpanKind kind,
                               double now_ms) {
  Event e;
  e.name_id = InternName(name);
  e.kind = kind;
  e.start_ms = now_ms;
  if (!stack_.empty()) {
    e.parent = static_cast<int32_t>(stack_.back());
    e.depth = static_cast<uint16_t>(events_[stack_.back()].depth + 1);
  }
  const size_t index = events_.size();
  events_.push_back(e);
  stack_.push_back(index);
  return index;
}

void TraceSession::EndSpan(size_t index, double now_ms) {
  LOB_CHECK(!stack_.empty());
  // Spans are RAII scopes, so closes arrive strictly LIFO.
  LOB_CHECK_EQ(stack_.back(), index);
  stack_.pop_back();
  Event& e = events_[index];
  e.dur_ms = now_ms - e.start_ms;
  if (e.dur_ms < 0) e.dur_ms = 0;  // clock restored by UnmeteredSection
}

void TraceSession::RecordIo(bool is_read, uint32_t pages, double start_ms,
                            double dur_ms) {
  if (io_name_id_ == UINT32_MAX) io_name_id_ = InternName("disk.io");
  Event e;
  e.name_id = io_name_id_;
  e.kind = SpanKind::kIo;
  e.is_read = is_read;
  e.pages = pages;
  e.start_ms = start_ms;
  e.dur_ms = dur_ms;
  if (!stack_.empty()) {
    e.parent = static_cast<int32_t>(stack_.back());
    e.depth = static_cast<uint16_t>(events_[stack_.back()].depth + 1);
  }
  events_.push_back(e);
}

std::map<std::string, double> TraceSession::IoMsByOp() const {
  std::map<std::string, double> by_op;
  for (const Event& e : events_) {
    if (e.kind != SpanKind::kIo) continue;
    int32_t p = e.parent;
    while (p >= 0 && events_[static_cast<size_t>(p)].kind != SpanKind::kOp) {
      p = events_[static_cast<size_t>(p)].parent;
    }
    const std::string& label =
        p >= 0 ? Name(events_[static_cast<size_t>(p)].name_id)
               : std::string("(unattributed)");
    by_op[label] += e.dur_ms;
  }
  return by_op;
}

void TraceSession::AppendChromeTraceEvents(std::string* out, int pid,
                                           const std::string& process_name,
                                           bool* first) const {
  auto sep = [&] {
    if (!*first) out->append(",\n");
    *first = false;
  };
  sep();
  AppendF(out,
          "  {\"ph\": \"M\", \"pid\": %d, \"tid\": 0, "
          "\"name\": \"process_name\", \"args\": {\"name\": \"%s\"}}",
          pid, JsonEscape(process_name).c_str());
  for (const Event& e : events_) {
    sep();
    // ts/dur in microseconds of the modeled clock; fixed %.3f keeps the
    // serialization deterministic.
    AppendF(out,
            "  {\"ph\": \"X\", \"pid\": %d, \"tid\": 0, \"name\": \"%s\", "
            "\"cat\": \"%s\", \"ts\": %.3f, \"dur\": %.3f",
            pid, JsonEscape(Name(e.name_id)).c_str(), KindCategory(e.kind),
            e.start_ms * 1000.0, e.dur_ms * 1000.0);
    if (e.kind == SpanKind::kIo) {
      AppendF(out, ", \"args\": {\"rw\": \"%s\", \"pages\": %u}",
              e.is_read ? "read" : "write", e.pages);
    }
    out->append("}");
  }
}

std::string TraceSession::ChromeTraceJson(
    const std::vector<std::pair<std::string, const TraceSession*>>&
        sessions) {
  std::string out =
      "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;
  int pid = 0;
  for (const auto& [label, session] : sessions) {
    session->AppendChromeTraceEvents(&out, pid, label, &first);
    ++pid;
  }
  out += "\n]\n}\n";
  return out;
}

TraceSession::SummaryNode TraceSession::Summarize() const {
  SummaryNode root;
  // node_of[i] points at the summary node event i was merged into; events
  // are ordered so parents precede children.
  std::vector<SummaryNode*> node_of(events_.size(), nullptr);
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    SummaryNode* parent =
        e.parent < 0 ? &root : node_of[static_cast<size_t>(e.parent)];
    SummaryNode& node = parent->children[Name(e.name_id)];
    node.count++;
    node.total_ms += e.dur_ms;
    if (e.kind == SpanKind::kIo) {
      node.io_calls++;
      node.io_pages += e.pages;
    }
    node_of[i] = &node;
  }
  return root;
}

namespace {

void PrintSummaryNode(const std::string& name,
                      const TraceSession::SummaryNode& node, int depth,
                      std::FILE* f) {
  std::fprintf(f, "%*s%-*s %8llu %12.1f", depth * 2, "",
               36 - depth * 2 > 0 ? 36 - depth * 2 : 0, name.c_str(),
               static_cast<unsigned long long>(node.count), node.total_ms);
  if (node.io_calls > 0) {
    std::fprintf(f, "  (%llu calls, %llu pages)",
                 static_cast<unsigned long long>(node.io_calls),
                 static_cast<unsigned long long>(node.io_pages));
  }
  std::fprintf(f, "\n");
  for (const auto& [child_name, child] : node.children) {
    PrintSummaryNode(child_name, child, depth + 1, f);
  }
}

}  // namespace

void TraceSession::PrintSummary(const SummaryNode& root, std::FILE* f) {
  std::fprintf(f, "%-36s %8s %12s\n", "span", "count", "modeled ms");
  for (const auto& [name, node] : root.children) {
    PrintSummaryNode(name, node, 0, f);
  }
}

}  // namespace lob
