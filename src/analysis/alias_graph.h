// Program-graph generation for the path-sensitive alias analysis (§4.1).
//
// Vertices are (variable, CFET node) occurrences per *clone*: a variable
// appearing in several extended basic blocks gets one vertex per block, and
// artificial assign edges carrying the interval encoding [parent, child]
// connect the copies (Figure 5b). Allocation sites get one object vertex per
// (clone, node) occurrence. Context sensitivity comes from aggressive
// bottom-up inlining: every call site to a non-recursive callee embeds a
// fresh clone of the callee's graph, with parameter-passing edges annotated
// {call-site id} and value-return edges annotated {return id} (§4.1).
// Methods in call-graph SCCs are instantiated once and connected context
// insensitively with true-constraint edges.
//
// Alongside the edges, generation records the *clone tree* and per-clone
// event/allocation occurrences — the bookkeeping phase 2 (typestate graph)
// and phase 3 (bug reports) need.
#ifndef GRAPPLE_SRC_ANALYSIS_ALIAS_GRAPH_H_
#define GRAPPLE_SRC_ANALYSIS_ALIAS_GRAPH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cfg/call_graph.h"
#include "src/grammar/pointsto_grammar.h"
#include "src/graph/engine.h"
#include "src/ir/ir.h"
#include "src/symexec/cfet.h"

namespace grapple {

inline constexpr uint32_t kNoClone = 0xFFFFFFFFu;

// Where a vertex came from (for bug reports and debugging).
struct AliasVertexInfo {
  enum class Kind : uint8_t { kVar, kObject };
  Kind kind = Kind::kVar;
  MethodId method = kNoMethod;
  CfetNodeId node = kCfetRoot;
  uint32_t clone = kNoClone;
  LocalId var = kNoLocal;         // kVar
  const Stmt* alloc = nullptr;    // kObject
};

// An FSM event statement occurrence inside one clone.
struct EventOccurrence {
  CfetNodeId node = kCfetRoot;
  // Position of the statement within the CFET node's stmt list (gives intra
  // block event ordering for the typestate walk).
  uint32_t stmt_index = 0;
  const Stmt* stmt = nullptr;
  VertexId receiver_vertex = 0;
};

// A tracked allocation occurrence (one per clone x node containing the
// alloc statement).
struct TrackedObject {
  uint32_t clone = kNoClone;
  CfetNodeId node = kCfetRoot;
  uint32_t stmt_index = 0;
  const Stmt* alloc_stmt = nullptr;
  VertexId object_vertex = 0;
  std::string type;
};

// One instantiated method instance.
struct CloneNode {
  MethodId method = kNoMethod;
  uint32_t parent = kNoClone;
  CallSiteId via_site = kNoCallSite;
  bool shared = false;  // recursive (SCC) instance, context-insensitive
  // Call-site id -> child clone (only for inlined, non-recursive callees;
  // calls into shared instances map to the shared clone index).
  std::unordered_map<CallSiteId, uint32_t> children;
  std::vector<EventOccurrence> events;
};

class AliasGraph {
 public:
  // Builds the full cloned program graph, feeding base edges directly into
  // `sink` (an engine that must not be finalized yet; call its
  // Finalize(graph.num_vertices()) afterwards). The graph does not keep
  // `sink`, so it may outlive the engine.
  AliasGraph(const Program& program, const CallGraph& call_graph, const Icfet& icfet,
             const PointsToLabels& labels, EdgeSink* sink);
  ~AliasGraph();

  VertexId num_vertices() const { return next_vertex_; }
  uint64_t num_base_edges() const { return emitted_edges_; }

  const std::vector<AliasVertexInfo>& vertex_info() const { return vertex_info_; }
  const std::vector<CloneNode>& clones() const { return clones_; }
  const std::vector<uint32_t>& entry_clones() const { return entry_clones_; }
  const std::vector<TrackedObject>& objects() const { return objects_; }
  const Icfet& icfet() const { return icfet_; }
  const Program& program() const { return program_; }

  // Entry instantiation (root clone) containing a clone.
  uint32_t EntryOf(uint32_t clone) const;

  std::string DescribeVertex(VertexId v) const;

 private:
  struct MethodShape;
  struct ShapeVertex;

  void BuildShape(MethodId m);
  uint32_t Instantiate(MethodId m, uint32_t parent, CallSiteId via_site, bool shared,
                       EdgeSink* sink);
  void Emit(EdgeSink* sink, VertexId src, VertexId dst, Label label, const PathEncoding& enc);

  const Program& program_;
  const CallGraph& call_graph_;
  const Icfet& icfet_;
  PointsToLabels labels_;
  std::unordered_map<std::string, size_t> field_index_;

  std::vector<MethodShape> shapes_;
  std::vector<AliasVertexInfo> vertex_info_;
  std::vector<CloneNode> clones_;
  std::vector<uint32_t> entry_clones_;
  std::vector<VertexId> clone_base_;
  std::vector<TrackedObject> objects_;
  std::unordered_map<MethodId, uint32_t> shared_instance_;
  VertexId next_vertex_ = 0;
  uint64_t emitted_edges_ = 0;
  uint32_t depth_ = 0;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_ANALYSIS_ALIAS_GRAPH_H_
