#include "core/events.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace aacc {

namespace {

enum class EventTag : std::uint8_t {
  kEdgeAdd = 1,
  kEdgeDelete = 2,
  kWeightChange = 3,
  kVertexAdd = 4,
  kVertexDelete = 5,
};

}  // namespace

void apply_event(Graph& g, const Event& e) {
  std::visit(
      [&g](const auto& ev) {
        using T = std::decay_t<decltype(ev)>;
        if constexpr (std::is_same_v<T, EdgeAddEvent>) {
          g.add_edge(ev.u, ev.v, ev.w);
        } else if constexpr (std::is_same_v<T, EdgeDeleteEvent>) {
          g.remove_edge(ev.u, ev.v);
        } else if constexpr (std::is_same_v<T, WeightChangeEvent>) {
          g.set_weight(ev.u, ev.v, ev.w_new);
        } else if constexpr (std::is_same_v<T, VertexAddEvent>) {
          const VertexId id = g.add_vertex();
          AACC_CHECK_MSG(id == ev.id, "VertexAddEvent id " << ev.id
                                                           << " applied at " << id);
          for (const auto& [to, w] : ev.edges) g.add_edge(ev.id, to, w);
        } else if constexpr (std::is_same_v<T, VertexDeleteEvent>) {
          g.remove_vertex(ev.v);
        }
      },
      e);
}

void apply_schedule(Graph& g, const EventSchedule& schedule) {
  for (const EventBatch& batch : schedule) {
    for (const Event& e : batch.events) apply_event(g, e);
  }
}

void serialize_events(const std::vector<Event>& events, rt::ByteWriter& w) {
  w.write(static_cast<std::uint64_t>(events.size()));
  for (const Event& e : events) {
    std::visit(
        [&w](const auto& ev) {
          using T = std::decay_t<decltype(ev)>;
          if constexpr (std::is_same_v<T, EdgeAddEvent>) {
            w.write(EventTag::kEdgeAdd);
            w.write(ev.u);
            w.write(ev.v);
            w.write(ev.w);
          } else if constexpr (std::is_same_v<T, EdgeDeleteEvent>) {
            w.write(EventTag::kEdgeDelete);
            w.write(ev.u);
            w.write(ev.v);
          } else if constexpr (std::is_same_v<T, WeightChangeEvent>) {
            w.write(EventTag::kWeightChange);
            w.write(ev.u);
            w.write(ev.v);
            w.write(ev.w_new);
          } else if constexpr (std::is_same_v<T, VertexAddEvent>) {
            w.write(EventTag::kVertexAdd);
            w.write(ev.id);
            w.write(static_cast<std::uint64_t>(ev.edges.size()));
            for (const auto& [to, weight] : ev.edges) {
              w.write(to);
              w.write(weight);
            }
          } else if constexpr (std::is_same_v<T, VertexDeleteEvent>) {
            w.write(EventTag::kVertexDelete);
            w.write(ev.v);
          }
        },
        e);
  }
}

std::vector<Event> deserialize_events(rt::ByteReader& r) {
  const auto count = r.read<std::uint64_t>();
  std::vector<Event> events;
  events.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    switch (r.read<EventTag>()) {
      case EventTag::kEdgeAdd: {
        EdgeAddEvent e;
        e.u = r.read<VertexId>();
        e.v = r.read<VertexId>();
        e.w = r.read<Weight>();
        events.emplace_back(e);
        break;
      }
      case EventTag::kEdgeDelete: {
        EdgeDeleteEvent e;
        e.u = r.read<VertexId>();
        e.v = r.read<VertexId>();
        events.emplace_back(e);
        break;
      }
      case EventTag::kWeightChange: {
        WeightChangeEvent e;
        e.u = r.read<VertexId>();
        e.v = r.read<VertexId>();
        e.w_new = r.read<Weight>();
        events.emplace_back(e);
        break;
      }
      case EventTag::kVertexAdd: {
        VertexAddEvent e;
        e.id = r.read<VertexId>();
        const auto m = r.read<std::uint64_t>();
        e.edges.reserve(m);
        for (std::uint64_t j = 0; j < m; ++j) {
          const auto to = r.read<VertexId>();
          const auto weight = r.read<Weight>();
          e.edges.emplace_back(to, weight);
        }
        events.emplace_back(std::move(e));
        break;
      }
      case EventTag::kVertexDelete: {
        VertexDeleteEvent e;
        e.v = r.read<VertexId>();
        events.emplace_back(e);
        break;
      }
      default:
        AACC_CHECK_MSG(false, "corrupt event stream");
    }
  }
  return events;
}

std::size_t event_count(const EventSchedule& schedule) {
  std::size_t n = 0;
  for (const EventBatch& b : schedule) n += b.events.size();
  return n;
}

std::size_t batches_through(const EventSchedule& schedule, std::size_t step) {
  return static_cast<std::size_t>(
      std::count_if(schedule.begin(), schedule.end(),
                    [&](const EventBatch& b) { return b.at_step <= step; }));
}

}  // namespace aacc
