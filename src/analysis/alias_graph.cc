#include "src/analysis/alias_graph.h"

#include <algorithm>
#include <set>

#include "src/support/logging.h"

namespace grapple {

namespace {

// Recursion guard for clone instantiation; beyond this depth call sites fall
// back to the callee's shared (context-insensitive) instance.
constexpr uint32_t kMaxInlineDepth = 40;

using VarSet = std::set<LocalId>;

bool Contains(const VarSet& set, LocalId v) { return set.find(v) != set.end(); }

}  // namespace

struct AliasGraph::ShapeVertex {
  AliasVertexInfo::Kind kind = AliasVertexInfo::Kind::kVar;
  CfetNodeId node = kCfetRoot;
  LocalId var = kNoLocal;
  const Stmt* alloc = nullptr;
};

struct AliasGraph::MethodShape {
  std::vector<ShapeVertex> vertices;

  struct ShapeEdge {
    uint32_t src;
    uint32_t dst;
    Label label;
    PathEncoding enc;
  };
  std::vector<ShapeEdge> edges;

  // Anchors used during instantiation.
  std::vector<uint32_t> param_vertex;  // per param index; UINT32_MAX if non-object
  struct LeafReturn {
    CfetNodeId leaf;
    uint32_t ret_vertex;
  };
  std::vector<LeafReturn> leaf_returns;
  struct CallAnchor {
    CallSiteId site;
    CfetNodeId node;
    std::vector<std::pair<size_t, uint32_t>> obj_args;  // (param idx, arg occurrence)
    uint32_t dst_vertex = UINT32_MAX;
  };
  std::vector<CallAnchor> calls;
  struct EventAnchor {
    CfetNodeId node;
    uint32_t stmt_index;
    const Stmt* stmt;
    uint32_t receiver_vertex;
  };
  std::vector<EventAnchor> events;
  struct AllocAnchor {
    CfetNodeId node;
    uint32_t stmt_index;
    const Stmt* stmt;
    uint32_t obj_vertex;
  };
  std::vector<AllocAnchor> allocs;
};

AliasGraph::~AliasGraph() = default;

AliasGraph::AliasGraph(const Program& program, const CallGraph& call_graph, const Icfet& icfet,
                       const PointsToLabels& labels, EdgeSink* sink)
    : program_(program), call_graph_(call_graph), icfet_(icfet), labels_(labels) {
  for (size_t i = 0; i < labels_.fields.size(); ++i) {
    field_index_[labels_.fields[i]] = i;
  }
  shapes_.resize(program_.NumMethods());
  for (MethodId m = 0; m < program_.NumMethods(); ++m) {
    BuildShape(m);
  }
  // Shared instances for every recursive method, registered before their
  // bodies instantiate so SCC cycles terminate.
  for (MethodId m : call_graph_.BottomUpOrder()) {
    if (call_graph_.IsRecursive(m) && shared_instance_.find(m) == shared_instance_.end()) {
      Instantiate(m, kNoClone, kNoCallSite, /*shared=*/true, sink);
    }
  }
  for (MethodId m : call_graph_.EntryMethods()) {
    if (call_graph_.IsRecursive(m)) {
      entry_clones_.push_back(shared_instance_.at(m));
    } else {
      entry_clones_.push_back(Instantiate(m, kNoClone, kNoCallSite, /*shared=*/false, sink));
    }
  }
}

void AliasGraph::BuildShape(MethodId m) {
  const Method& method = program_.MethodAt(m);
  const MethodCfet& cfet = icfet_.OfMethod(m);
  MethodShape& shape = shapes_[m];

  auto is_obj = [&](LocalId v) { return v != kNoLocal && method.locals[v].is_object; };

  // --- 1. per-node referenced object variables ---
  std::unordered_map<CfetNodeId, VarSet> referenced;
  for (const auto& [id, node] : cfet.nodes()) {
    VarSet& set = referenced[id];
    for (const auto& ref : node.stmts) {
      const Stmt& stmt = *ref.stmt;
      if (is_obj(stmt.dst)) {
        set.insert(stmt.dst);
      }
      if (is_obj(stmt.src)) {
        set.insert(stmt.src);
      }
      if (is_obj(stmt.base)) {
        set.insert(stmt.base);
      }
      for (LocalId arg : stmt.args) {
        if (is_obj(arg)) {
          set.insert(arg);
        }
      }
    }
    if (node.is_exit && node.return_obj != kNoLocal) {
      set.insert(node.return_obj);
    }
  }
  // Object parameters are defined at the root.
  for (size_t p = 0; p < method.num_params; ++p) {
    if (method.locals[p].is_object) {
      referenced[kCfetRoot].insert(static_cast<LocalId>(p));
    }
  }

  // --- 2. liveness: above = union over ancestors-or-self; below = union
  // over subtree. relevant(v, n) = v in above[n] && v in below[n]. ---
  std::unordered_map<CfetNodeId, VarSet> below;
  std::unordered_map<CfetNodeId, VarSet> relevant;
  // Post-order computation of below (explicit stack over the binary tree).
  struct WalkFrame {
    CfetNodeId id;
    bool expanded;
  };
  std::vector<WalkFrame> stack{{kCfetRoot, false}};
  while (!stack.empty()) {
    WalkFrame frame = stack.back();
    stack.pop_back();
    const CfetNode* node = cfet.FindNode(frame.id);
    if (node == nullptr) {
      continue;
    }
    if (!frame.expanded) {
      stack.push_back({frame.id, true});
      if (node->has_children) {
        stack.push_back({MethodCfet::FalseChild(frame.id), false});
        stack.push_back({MethodCfet::TrueChild(frame.id), false});
      }
      continue;
    }
    VarSet set = referenced[frame.id];
    if (node->has_children) {
      for (CfetNodeId child :
           {MethodCfet::FalseChild(frame.id), MethodCfet::TrueChild(frame.id)}) {
        auto it = below.find(child);
        if (it != below.end()) {
          set.insert(it->second.begin(), it->second.end());
        }
      }
    }
    below[frame.id] = std::move(set);
  }
  // Pre-order: carry `above` down; relevant = above ∩ below.
  struct AboveFrame {
    CfetNodeId id;
    VarSet above;
  };
  std::vector<AboveFrame> astack{{kCfetRoot, referenced[kCfetRoot]}};
  while (!astack.empty()) {
    AboveFrame frame = std::move(astack.back());
    astack.pop_back();
    const CfetNode* node = cfet.FindNode(frame.id);
    if (node == nullptr) {
      continue;
    }
    VarSet& rel = relevant[frame.id];
    const VarSet& sub = below[frame.id];
    for (LocalId v : frame.above) {
      if (Contains(sub, v)) {
        rel.insert(v);
      }
    }
    if (node->has_children) {
      for (CfetNodeId child :
           {MethodCfet::FalseChild(frame.id), MethodCfet::TrueChild(frame.id)}) {
        VarSet child_above = frame.above;
        auto it = referenced.find(child);
        if (it != referenced.end()) {
          child_above.insert(it->second.begin(), it->second.end());
        }
        astack.push_back({child, std::move(child_above)});
      }
    }
  }

  // --- 3. vertices for relevant (node, var) pairs ---
  std::unordered_map<uint64_t, uint32_t> var_vertex;  // (node<<8|var-ish) -> local idx
  auto key_of = [](CfetNodeId node, LocalId var) {
    return (node << 16) ^ (static_cast<uint64_t>(var) + 0x9E3779B9u);
  };
  auto vertex_of = [&](CfetNodeId node, LocalId var) -> uint32_t {
    uint64_t key = key_of(node, var);
    auto it = var_vertex.find(key);
    GRAPPLE_CHECK(it != var_vertex.end())
        << "missing occurrence vertex for var " << method.locals[var].name << " at node "
        << node << " in " << method.name;
    return it->second;
  };
  for (const auto& [id, vars] : relevant) {
    for (LocalId v : vars) {
      ShapeVertex vertex;
      vertex.kind = AliasVertexInfo::Kind::kVar;
      vertex.node = id;
      vertex.var = v;
      var_vertex[key_of(id, v)] = static_cast<uint32_t>(shape.vertices.size());
      shape.vertices.push_back(vertex);
    }
  }

  // --- 4. artificial assign edges along tree edges ---
  for (const auto& [id, vars] : relevant) {
    if (id == kCfetRoot) {
      continue;
    }
    CfetNodeId parent = MethodCfet::ParentOf(id);
    auto pit = relevant.find(parent);
    if (pit == relevant.end()) {
      continue;
    }
    for (LocalId v : vars) {
      if (Contains(pit->second, v)) {
        shape.edges.push_back({vertex_of(parent, v), vertex_of(id, v), labels_.assign,
                               PathEncoding::Interval(m, parent, id)});
      }
    }
  }

  // --- 5. statement edges and anchors ---
  for (const auto& [id, node] : cfet.nodes()) {
    PathEncoding here = PathEncoding::Interval(m, id, id);
    for (uint32_t si = 0; si < node.stmts.size(); ++si) {
      const Stmt& stmt = *node.stmts[si].stmt;
      switch (stmt.kind) {
        case StmtKind::kAlloc: {
          ShapeVertex obj;
          obj.kind = AliasVertexInfo::Kind::kObject;
          obj.node = id;
          obj.alloc = &stmt;
          uint32_t obj_idx = static_cast<uint32_t>(shape.vertices.size());
          shape.vertices.push_back(obj);
          shape.edges.push_back({obj_idx, vertex_of(id, stmt.dst), labels_.new_label, here});
          shape.allocs.push_back({id, si, &stmt, obj_idx});
          break;
        }
        case StmtKind::kAssign:
          if (is_obj(stmt.dst) && is_obj(stmt.src)) {
            shape.edges.push_back(
                {vertex_of(id, stmt.src), vertex_of(id, stmt.dst), labels_.assign, here});
          }
          break;
        case StmtKind::kLoad:
          if (is_obj(stmt.dst) && is_obj(stmt.base)) {
            auto fit = field_index_.find(stmt.field);
            GRAPPLE_CHECK(fit != field_index_.end()) << "unknown field " << stmt.field;
            shape.edges.push_back({vertex_of(id, stmt.base), vertex_of(id, stmt.dst),
                                   labels_.load[fit->second], here});
          }
          break;
        case StmtKind::kStore:
          if (is_obj(stmt.base) && is_obj(stmt.src)) {
            auto fit = field_index_.find(stmt.field);
            GRAPPLE_CHECK(fit != field_index_.end()) << "unknown field " << stmt.field;
            shape.edges.push_back({vertex_of(id, stmt.src), vertex_of(id, stmt.base),
                                   labels_.store[fit->second], here});
          }
          break;
        case StmtKind::kEvent:
          if (is_obj(stmt.src)) {
            shape.events.push_back({id, si, &stmt, vertex_of(id, stmt.src)});
          }
          break;
        case StmtKind::kCall: {
          if (node.stmts[si].call_site == kNoCallSite) {
            break;  // external call
          }
          MethodShape::CallAnchor anchor;
          anchor.site = node.stmts[si].call_site;
          anchor.node = id;
          const CallSite& site = icfet_.CallSiteAt(anchor.site);
          const Method& callee = program_.MethodAt(site.callee);
          for (size_t p = 0; p < callee.num_params && p < stmt.args.size(); ++p) {
            if (callee.locals[p].is_object && is_obj(stmt.args[p])) {
              anchor.obj_args.emplace_back(p, vertex_of(id, stmt.args[p]));
            }
          }
          if (is_obj(stmt.dst)) {
            anchor.dst_vertex = vertex_of(id, stmt.dst);
          }
          shape.calls.push_back(std::move(anchor));
          break;
        }
        default:
          break;
      }
    }
    if (node.is_exit && node.return_obj != kNoLocal && is_obj(node.return_obj)) {
      shape.leaf_returns.push_back({id, vertex_of(id, node.return_obj)});
    }
  }

  // --- 6. parameter anchors ---
  shape.param_vertex.assign(method.num_params, UINT32_MAX);
  for (size_t p = 0; p < method.num_params; ++p) {
    if (method.locals[p].is_object) {
      shape.param_vertex[p] = vertex_of(kCfetRoot, static_cast<LocalId>(p));
    }
  }
}

uint32_t AliasGraph::Instantiate(MethodId m, uint32_t parent, CallSiteId via_site, bool shared,
                                 EdgeSink* sink) {
  const MethodShape& shape = shapes_[m];
  uint32_t clone_id = static_cast<uint32_t>(clones_.size());
  {
    CloneNode clone;
    clone.method = m;
    clone.parent = parent;
    clone.via_site = via_site;
    clone.shared = shared;
    clones_.push_back(std::move(clone));
  }
  if (shared) {
    shared_instance_[m] = clone_id;
  }
  VertexId base = next_vertex_;
  clone_base_.push_back(base);
  next_vertex_ += static_cast<VertexId>(shape.vertices.size());
  for (const auto& sv : shape.vertices) {
    AliasVertexInfo info;
    info.kind = sv.kind;
    info.method = m;
    info.node = sv.node;
    info.clone = clone_id;
    info.var = sv.var;
    info.alloc = sv.alloc;
    vertex_info_.push_back(info);
  }
  for (const auto& edge : shape.edges) {
    Emit(sink, base + edge.src, base + edge.dst, edge.label, edge.enc);
  }
  for (const auto& event : shape.events) {
    clones_[clone_id].events.push_back(
        {event.node, event.stmt_index, event.stmt, base + event.receiver_vertex});
  }
  for (const auto& alloc : shape.allocs) {
    TrackedObject object;
    object.clone = clone_id;
    object.node = alloc.node;
    object.stmt_index = alloc.stmt_index;
    object.alloc_stmt = alloc.stmt;
    object.object_vertex = base + alloc.obj_vertex;
    object.type = alloc.stmt->type_name;
    objects_.push_back(std::move(object));
  }

  ++depth_;
  for (const auto& anchor : shape.calls) {
    const CallSite& site = icfet_.CallSiteAt(anchor.site);
    bool insensitive = site.context_insensitive || depth_ > kMaxInlineDepth;
    uint32_t child;
    if (insensitive) {
      auto it = shared_instance_.find(site.callee);
      child = (it != shared_instance_.end())
                  ? it->second
                  : Instantiate(site.callee, kNoClone, kNoCallSite, /*shared=*/true, sink);
    } else {
      child = Instantiate(site.callee, clone_id, site.id, /*shared=*/false, sink);
    }
    clones_[clone_id].children[anchor.site] = child;
    VertexId child_base = clone_base_[child];
    const MethodShape& callee_shape = shapes_[site.callee];
    PathEncoding call_enc =
        insensitive ? PathEncoding::Empty() : PathEncoding::CallEdge(site.id);
    PathEncoding ret_enc = insensitive ? PathEncoding::Empty() : PathEncoding::RetEdge(site.id);
    for (const auto& [param_idx, arg_vertex] : anchor.obj_args) {
      uint32_t param_vertex = callee_shape.param_vertex[param_idx];
      if (param_vertex != UINT32_MAX) {
        Emit(sink, base + arg_vertex, child_base + param_vertex, labels_.assign, call_enc);
      }
    }
    if (anchor.dst_vertex != UINT32_MAX) {
      for (const auto& leaf_return : callee_shape.leaf_returns) {
        Emit(sink, child_base + leaf_return.ret_vertex, base + anchor.dst_vertex,
             labels_.assign, ret_enc);
      }
    }
  }
  --depth_;
  return clone_id;
}

void AliasGraph::Emit(EdgeSink* sink, VertexId src, VertexId dst, Label label,
                      const PathEncoding& enc) {
  sink->AddBaseEdge(src, dst, label, enc);
  ++emitted_edges_;
}

uint32_t AliasGraph::EntryOf(uint32_t clone) const {
  while (clones_[clone].parent != kNoClone) {
    clone = clones_[clone].parent;
  }
  return clone;
}

std::string AliasGraph::DescribeVertex(VertexId v) const {
  if (v >= vertex_info_.size()) {
    return "v" + std::to_string(v);
  }
  const AliasVertexInfo& info = vertex_info_[v];
  const Method& method = program_.MethodAt(info.method);
  std::string out = method.name;
  if (info.kind == AliasVertexInfo::Kind::kVar) {
    out += "::" + method.locals[info.var].name;
  } else {
    out += "::new " + info.alloc->type_name;
  }
  out += "@n" + std::to_string(info.node) + "#c" + std::to_string(info.clone);
  return out;
}

}  // namespace grapple
