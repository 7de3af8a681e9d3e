#include "trace/trace_session.h"

#include <cmath>

#include "common/json.h"
#include "common/logging.h"

namespace lob {

namespace {

const char* KindCategory(SpanKind kind) {
  return kind == SpanKind::kOp ? "op" : "phase";
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
                               const IoStats& now) {
  Event e;
  e.name_id = InternName(name);
  e.kind = kind;
  e.start_ms = now.ms;
  e.io = now;
  if (!stack_.empty()) e.parent = static_cast<int32_t>(stack_.back());
  const size_t index = events_.size();
  events_.push_back(e);
  stack_.push_back(index);
  return index;
}

void TraceSession::EndSpan(size_t index, const IoStats& now) {
  LOB_CHECK(!stack_.empty());
  // Spans are RAII scopes, so closes arrive strictly LIFO.
  LOB_CHECK_EQ(stack_.back(), index);
  stack_.pop_back();
  Event& e = events_[index];
  e.io = IoStats::Delta(e.io, now);
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
            e.start_ms * 1000.0, e.io.ms * 1000.0);
    if (e.io.Seeks() > 0) {
      AppendF(out,
              ", \"args\": {\"reads\": %llu, \"writes\": %llu, "
              "\"pages\": %llu}",
              static_cast<unsigned long long>(e.io.read_calls),
              static_cast<unsigned long long>(e.io.write_calls),
              static_cast<unsigned long long>(e.io.PagesTransferred()));
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
    node.io += e.io;
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
               static_cast<unsigned long long>(node.count), node.io.ms);
  if (node.io.Seeks() > 0) {
    std::fprintf(f, "  (%llu calls, %llu pages)",
                 static_cast<unsigned long long>(node.io.Seeks()),
                 static_cast<unsigned long long>(node.io.PagesTransferred()));
  }
  std::fprintf(f, "\n");
  for (const auto& [child_name, child] : node.children) {
    PrintSummaryNode(child_name, child, depth + 1, f);
  }
}

void AppendFolded(const std::string& path,
                  const TraceSession::SummaryNode& node, std::string* out) {
  double self_ms = node.io.ms;
  for (const auto& [name, child] : node.children) self_ms -= child.io.ms;
  const long long self_us = std::llround(self_ms * 1000.0);
  if (self_us != 0) AppendF(out, "%s %lld\n", path.c_str(), self_us);
  for (const auto& [name, child] : node.children) {
    AppendFolded(path + ";" + name, child, out);
  }
}

}  // namespace

void TraceSession::PrintSummary(const SummaryNode& root, std::FILE* f) {
  std::fprintf(f, "%-36s %8s %12s\n", "span", "count", "modeled ms");
  for (const auto& [name, node] : root.children) {
    PrintSummaryNode(name, node, 0, f);
  }
}

std::string TraceSession::Folded(const SummaryNode& root) {
  std::string out;
  for (const auto& [name, node] : root.children) {
    AppendFolded(name, node, &out);
  }
  return out;
}

}  // namespace lob
