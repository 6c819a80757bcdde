// Dynamic graph events and schedules.
//
// A schedule is a sequence of batches pinned to RC step indices ("anywhere":
// changes are ingested during the analysis, at the step where they occur).
// Batches are broadcast from rank 0 through the measured communicator, so
// the cost of distributing change notifications is part of the accounting.
#pragma once

#include <variant>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"
#include "runtime/serialize.hpp"

namespace aacc {

struct EdgeAddEvent {
  VertexId u = 0;
  VertexId v = 0;
  Weight w = 1;
};

struct EdgeDeleteEvent {
  VertexId u = 0;
  VertexId v = 0;
};

struct WeightChangeEvent {
  VertexId u = 0;
  VertexId v = 0;
  Weight w_new = 1;
};

/// One new vertex plus all its initial edges. `id` must equal the graph's
/// vertex count at application time (ids are assigned densely in schedule
/// order); endpoints may reference other new vertices in the same batch
/// that appear earlier.
struct VertexAddEvent {
  VertexId id = 0;
  std::vector<std::pair<VertexId, Weight>> edges;
};

struct VertexDeleteEvent {
  VertexId v = 0;
};

using Event = std::variant<EdgeAddEvent, EdgeDeleteEvent, WeightChangeEvent,
                           VertexAddEvent, VertexDeleteEvent>;

struct EventBatch {
  /// RC step at which this batch is ingested (0 = before the first
  /// refinement exchange completes).
  std::size_t at_step = 0;
  std::vector<Event> events;
};

/// Batches must be sorted by at_step (ties allowed; applied in order).
using EventSchedule = std::vector<EventBatch>;

/// Applies one event to the driver-side ground-truth graph.
void apply_event(Graph& g, const Event& e);

/// Applies a whole schedule (used by reference recomputation in tests).
void apply_schedule(Graph& g, const EventSchedule& schedule);

/// Wire format for broadcasting batches.
void serialize_events(const std::vector<Event>& events, rt::ByteWriter& w);
std::vector<Event> deserialize_events(rt::ByteReader& r);

/// Total count of events across a schedule.
std::size_t event_count(const EventSchedule& schedule);

/// Batches ingested at or before RC step `step`: the batch cursor of a run
/// that restarts after that step.
std::size_t batches_through(const EventSchedule& schedule, std::size_t step);

}  // namespace aacc
