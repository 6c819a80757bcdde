// Umbrella header: the whole public API in one include.
//
//   #include "aacc/aacc.hpp"
//
//   aacc::Rng rng(42);
//   aacc::Graph g = aacc::barabasi_albert(5000, 3, rng);
//   aacc::EngineConfig cfg;
//   aacc::AnytimeEngine engine(g, cfg);
//   aacc::RunResult r = engine.run();
//   std::puts(r.stats.summary().c_str());
//
// For serving queries while changes stream in, open a session instead of
// an engine (docs/API.md §"Serving sessions"):
//
//   aacc::serve::EngineSession session(g, cfg);
//   session.ingest({aacc::EdgeAddEvent{1, 2, 1}});
//   auto top = session.view().top_k(10);
//   aacc::RunResult final = session.close();
//
// Fine-grained headers remain available for code that wants to limit its
// include surface; this header is the recommended entry point for
// applications (see docs/API.md).
#pragma once

#include "analysis/closeness.hpp"
#include "analysis/quality.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/engine.hpp"
#include "core/events.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "partition/partition.hpp"
#include "runtime/faults.hpp"
#include "runtime/logp.hpp"
#include "serve/context.hpp"
#include "serve/session.hpp"
#include "serve/stream.hpp"
