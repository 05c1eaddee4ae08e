#ifndef TPIIN_IO_DOT_EXPORT_H_
#define TPIIN_IO_DOT_EXPORT_H_

#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "fusion/tpiin.h"
#include "graph/types.h"

namespace tpiin {

/// Renders a TPIIN as Graphviz DOT using the paper's palette: red
/// company nodes, black person nodes, blue influence arcs, black trading
/// arcs (Figs. 11-16 legend).
std::string TpiinToDot(const Tpiin& net, const std::string& graph_name);

/// Renders a homogeneous layer graph (G1/G2/GI/G4) from its arc table
/// (fusion/layers.h) with per-color edge styling, one edge line per arc
/// in id order; `labels` supplies node captions (empty -> node indices).
std::string LayerToDot(NodeId num_nodes, std::span<const Arc> arcs,
                       const std::vector<std::string>& labels,
                       const std::string& graph_name);

/// Crash-safe whole-file write (temp + rename via WriteFileAtomic); a
/// failure never leaves a torn file at `path`.
Status WriteStringToFile(const std::string& path,
                         const std::string& contents);

}  // namespace tpiin

#endif  // TPIIN_IO_DOT_EXPORT_H_
