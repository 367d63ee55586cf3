#include "core/stack_model.hh"

#include <algorithm>
#include <cmath>

#include "base/errors.hh"
#include "base/fault_injection.hh"
#include "base/logging.hh"
#include "materials/convection.hh"
#include "numeric/direct_solve.hh"
#include "numeric/impulse_cache.hh"
#include "numeric/iterative.hh"
#include "numeric/robust_solve.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace irtherm
{

namespace
{

/** Geometric tolerance for edge contact (1 nm). */
constexpr double contactTol = 1e-9;

/** Result of a shared-edge test between two rects. */
struct Contact
{
    double length = 0.0; ///< shared edge length (m)
    double halfA = 0.0;  ///< rect A half-extent perpendicular to edge
    double halfB = 0.0;
};

/** True when the rects share an edge; fills @p out. */
bool
rectContact(const Block &a, const Block &b, Contact &out)
{
    const double y_overlap =
        std::min(a.top(), b.top()) - std::max(a.y, b.y);
    if ((std::abs(a.right() - b.x) < contactTol ||
         std::abs(b.right() - a.x) < contactTol) &&
        y_overlap > contactTol) {
        out = {y_overlap, 0.5 * a.width, 0.5 * b.width};
        return true;
    }
    const double x_overlap =
        std::min(a.right(), b.right()) - std::max(a.x, b.x);
    if ((std::abs(a.top() - b.y) < contactTol ||
         std::abs(b.top() - a.y) < contactTol) &&
        x_overlap > contactTol) {
        out = {x_overlap, 0.5 * a.height, 0.5 * b.height};
        return true;
    }
    return false;
}

/**
 * Four strips tiling the ring between an inner and an outer
 * rectangle. West/east strips take the full outer height; the
 * north/south strips span only the inner width, so the four strips
 * plus the inner rectangle exactly tile the outer one.
 */
std::vector<Block>
ringStrips(double in_x0, double in_y0, double in_x1, double in_y1,
           double out_x0, double out_y0, double out_x1, double out_y1,
           const std::string &prefix)
{
    std::vector<Block> strips;
    auto push = [&](const std::string &n, double x0, double y0,
                    double x1, double y1) {
        if (x1 - x0 > contactTol && y1 - y0 > contactTol)
            strips.push_back({prefix + n, x0, y0, x1 - x0, y1 - y0});
    };
    push("W", out_x0, out_y0, in_x0, out_y1);
    push("E", in_x1, out_y0, out_x1, out_y1);
    push("S", in_x0, out_y0, in_x1, in_y0);
    push("N", in_x0, in_y1, in_x1, out_y1);
    return strips;
}

/**
 * G as the steady solvers see it: the CSR matvec, with a Multigrid
 * request answered by the bordered V-cycle over the model's planes
 * (without planes it degrades to Jacobi, as on any CSR matrix). The
 * V-cycle is built on the first request and shared by every solve
 * through this operator, so an impulse build sets up one hierarchy
 * for all its columns. One solve at a time.
 */
class StackOperator final : public LinearOperator
{
  public:
    StackOperator(const CsrMatrix &g, const PlaneLayout *layout)
        : csr(g), layout(layout)
    {
    }

    std::size_t rows() const override { return csr.rows(); }
    std::size_t cols() const override { return csr.cols(); }
    void apply(const std::vector<double> &x,
               std::vector<double> &y) const override
    {
        csr.apply(x, y);
    }
    void applyAccumulate(const std::vector<double> &x,
                         std::vector<double> &y,
                         double alpha) const override
    {
        csr.applyAccumulate(x, y, alpha);
    }
    std::vector<double> diagonal() const override
    {
        return csr.diagonal();
    }

    std::unique_ptr<Preconditioner>
    makePreconditioner(PreconditionerKind kind) const override
    {
        if (kind != PreconditionerKind::Multigrid || layout == nullptr)
            return csr.makePreconditioner(kind);
        if (!cycle)
            cycle = makeBorderedMultigrid(csr.matrix(), *layout);
        return std::make_unique<Handle>(*cycle);
    }

  private:
    /** Borrows the operator's V-cycle for one solve. */
    class Handle final : public Preconditioner
    {
      public:
        explicit Handle(const Preconditioner &p) : p(p) {}
        void apply(const std::vector<double> &r,
                   std::vector<double> &z) const override
        {
            p.apply(r, z);
        }
        PreconditionerKind kind() const override { return p.kind(); }

      private:
        const Preconditioner &p;
    };

    CsrOperator csr;
    const PlaneLayout *layout;
    mutable std::unique_ptr<Preconditioner> cycle;
};

} // namespace

StackModel::StackModel(const Floorplan &fp, const PackageConfig &pkg,
                       const ModelOptions &opts)
    : fp_(fp), pkg_(pkg), opts_(opts)
{
    fp_.validate();
    pkg_.check(fp_.width(), fp_.height());
    buildPartition();
    buildLayers();
    assemble();
}

void
StackModel::buildPartition()
{
    if (opts_.mode == ModelMode::Block) {
        if (pkg_.cooling == CoolingKind::Microchannel) {
            fatal("StackModel: microchannel cooling needs grid mode "
                  "(the coolant advects along ordered cells)");
        }
        partition_ = fp_.blocks();
        return;
    }
    mapping_ = std::make_unique<GridMapping>(fp_, opts_.gridNx,
                                             opts_.gridNy);
    const double dx = mapping_->cellWidth();
    const double dy = mapping_->cellHeight();
    partition_.reserve(mapping_->cellCount());
    for (std::size_t iy = 0; iy < opts_.gridNy; ++iy) {
        for (std::size_t ix = 0; ix < opts_.gridNx; ++ix) {
            partition_.push_back(
                {"c" + std::to_string(ix) + "_" + std::to_string(iy),
                 static_cast<double>(ix) * dx,
                 static_cast<double>(iy) * dy, dx, dy});
        }
    }
}

void
StackModel::buildLayers()
{
    const double w = fp_.width();
    const double h = fp_.height();
    const double cx = 0.5 * w;
    const double cy = 0.5 * h;

    auto die_footprint_layer = [&](const std::string &name,
                                   const SolidMaterial &mat,
                                   double thickness) {
        Layer layer;
        layer.name = name;
        layer.mat = mat;
        layer.thickness = thickness;
        layer.rects = partition_;
        layer.cellsArePartition = true;
        return layer;
    };

    /** Layer covering a centered square of the given side. */
    auto square_layer = [&](const std::string &name,
                            const SolidMaterial &mat, double thickness,
                            double side) {
        Layer layer = die_footprint_layer(name, mat, thickness);
        const auto ring =
            ringStrips(0.0, 0.0, w, h, cx - 0.5 * side, cy - 0.5 * side,
                       cx + 0.5 * side, cy + 0.5 * side, "");
        layer.rects.insert(layer.rects.end(), ring.begin(), ring.end());
        return layer;
    };

    // Stack is assembled top (cooling side) to bottom (PCB side).
    if (pkg_.cooling == CoolingKind::AirSink) {
        const AirSinkSpec &as = pkg_.airSink;

        // Heatsink: die-footprint cells, inner ring to the spreader
        // extent, outer ring to the sink extent.
        Layer sink = die_footprint_layer("sink", as.sinkMaterial,
                                         as.sinkThickness);
        const auto inner = ringStrips(
            0.0, 0.0, w, h, cx - 0.5 * as.spreaderSide,
            cy - 0.5 * as.spreaderSide, cx + 0.5 * as.spreaderSide,
            cy + 0.5 * as.spreaderSide, "inner");
        sink.rects.insert(sink.rects.end(), inner.begin(), inner.end());
        const auto outer = ringStrips(
            cx - 0.5 * as.spreaderSide, cy - 0.5 * as.spreaderSide,
            cx + 0.5 * as.spreaderSide, cy + 0.5 * as.spreaderSide,
            cx - 0.5 * as.sinkSide, cy - 0.5 * as.sinkSide,
            cx + 0.5 * as.sinkSide, cy + 0.5 * as.sinkSide, "outer");
        sink.rects.insert(sink.rects.end(), outer.begin(), outer.end());
        layers_.push_back(std::move(sink));

        layers_.push_back(square_layer("spreader", as.spreaderMaterial,
                                       as.spreaderThickness,
                                       as.spreaderSide));
        layers_.push_back(die_footprint_layer("tim", as.timMaterial,
                                              as.timThickness));
    }

    if (pkg_.cooling == CoolingKind::Microchannel) {
        // Channel base: the solid silicon between the die back and
        // the channel floors; the coolant couples to its top.
        layers_.push_back(die_footprint_layer(
            "chbase", pkg_.microchannel.capMaterial,
            pkg_.microchannel.baseThickness));
    }

    dieLayer = layers_.size();
    layers_.push_back(die_footprint_layer("die", pkg_.dieMaterial,
                                          pkg_.dieThickness));

    if (pkg_.secondary.enabled) {
        const SecondaryPathSpec &sp = pkg_.secondary;
        layers_.push_back(die_footprint_layer(
            "interconnect", sp.interconnectMaterial,
            sp.interconnectThickness));
        layers_.push_back(
            die_footprint_layer("c4", sp.c4Material, sp.c4Thickness));
        layers_.push_back(die_footprint_layer(
            "substrate", sp.substrateMaterial, sp.substrateThickness));
        layers_.push_back(die_footprint_layer(
            "solder", sp.solderMaterial, sp.solderThickness));
        layers_.push_back(square_layer("pcb", sp.pcbMaterial,
                                       sp.pcbThickness, sp.pcbSide));
    }
}

double
StackModel::oilCoefficient(const Block &rect, double ext_x0,
                           double ext_y0, double ext_x1,
                           double ext_y1) const
{
    const OilFlowSpec &of = pkg_.oilFlow;
    double s0 = 0.0, s1 = 0.0, flow_length = 0.0;
    switch (of.direction) {
      case FlowDirection::LeftToRight:
        s0 = rect.x - ext_x0;
        s1 = rect.right() - ext_x0;
        flow_length = ext_x1 - ext_x0;
        break;
      case FlowDirection::RightToLeft:
        s0 = ext_x1 - rect.right();
        s1 = ext_x1 - rect.x;
        flow_length = ext_x1 - ext_x0;
        break;
      case FlowDirection::BottomToTop:
        s0 = rect.y - ext_y0;
        s1 = rect.top() - ext_y0;
        flow_length = ext_y1 - ext_y0;
        break;
      case FlowDirection::TopToBottom:
        s0 = ext_y1 - rect.top();
        s1 = ext_y1 - rect.y;
        flow_length = ext_y1 - ext_y0;
        break;
    }
    s0 = std::max(0.0, s0);
    s1 = std::max(s1, s0 + contactTol);

    if (!of.directional) {
        return averageHeatTransferCoefficient(of.oil, of.velocity,
                                              flow_length);
    }
    return cellAveragedCoefficient(of.oil, of.velocity, s0, s1);
}

double
StackModel::oilCellCapacitance(const Block &rect, double ext_x0,
                               double ext_y0, double ext_x1,
                               double ext_y1) const
{
    const OilFlowSpec &of = pkg_.oilFlow;
    double flow_length = 0.0, s_mid = 0.0;
    switch (of.direction) {
      case FlowDirection::LeftToRight:
        flow_length = ext_x1 - ext_x0;
        s_mid = rect.centerX() - ext_x0;
        break;
      case FlowDirection::RightToLeft:
        flow_length = ext_x1 - ext_x0;
        s_mid = ext_x1 - rect.centerX();
        break;
      case FlowDirection::BottomToTop:
        flow_length = ext_y1 - ext_y0;
        s_mid = rect.centerY() - ext_y0;
        break;
      case FlowDirection::TopToBottom:
        flow_length = ext_y1 - ext_y0;
        s_mid = ext_y1 - rect.centerY();
        break;
    }
    const double where =
        of.localBoundaryLayerCap ? std::max(s_mid, 1e-6) : flow_length;
    const double dt = thermalBoundaryLayerThickness(of.oil, of.velocity,
                                                    where);
    return of.oil.volumetricHeatCapacity() * rect.area() * dt;
}

void
StackModel::assemble()
{
    // Assign node indices.
    std::size_t n = 0;
    for (Layer &layer : layers_) {
        layer.nodeOffset = n;
        n += layer.rects.size();
    }
    const bool split_oil = pkg_.cooling == CoolingKind::OilSilicon &&
                           !pkg_.oilFlow.capacitanceAtInterface;
    if (split_oil) {
        oilNodeOffset = n;
        oilNodeCount = partition_.size();
        n += oilNodeCount;
    }
    if (pkg_.cooling == CoolingKind::Microchannel) {
        fluidNodeOffset = n;
        fluidNodeCount = partition_.size();
        n += fluidNodeCount;
        advection = true;
    }

    nodeNames_.clear();
    nodeNames_.reserve(n);
    for (const Layer &layer : layers_) {
        for (const Block &r : layer.rects)
            nodeNames_.push_back(layer.name + ":" + r.name);
    }
    if (split_oil) {
        for (std::size_t i = 0; i < oilNodeCount; ++i)
            nodeNames_.push_back("oil:" + partition_[i].name);
    }
    for (std::size_t i = 0; i < fluidNodeCount; ++i)
        nodeNames_.push_back("coolant:" + partition_[i].name);

    SparseBuilder sb(n, n);
    cap_.assign(n, 0.0);

    // --- per-layer capacitance and lateral conduction ---------------------
    for (const Layer &layer : layers_) {
        const double kt = layer.mat.conductivity * layer.thickness;
        const double cvt =
            layer.mat.volumetricHeatCapacity * layer.thickness;
        const std::size_t cells = partition_.size();
        const std::size_t count = layer.rects.size();

        for (std::size_t i = 0; i < count; ++i)
            cap_[layer.nodeOffset + i] += cvt * layer.rects[i].area();

        if (opts_.mode == ModelMode::Grid && layer.cellsArePartition) {
            // Structured stamping for the grid cells...
            const double dx = mapping_->cellWidth();
            const double dy = mapping_->cellHeight();
            const double gx = kt * dy / dx;
            const double gy = kt * dx / dy;
            for (std::size_t iy = 0; iy < opts_.gridNy; ++iy) {
                for (std::size_t ix = 0; ix < opts_.gridNx; ++ix) {
                    const std::size_t c =
                        layer.nodeOffset + mapping_->cellIndex(ix, iy);
                    if (ix + 1 < opts_.gridNx)
                        sb.stampConductance(c, c + 1, gx);
                    if (iy + 1 < opts_.gridNy) {
                        sb.stampConductance(c, c + opts_.gridNx, gy);
                    }
                }
            }
            // ...then generic contact for strips against everything.
            for (std::size_t i = cells; i < count; ++i) {
                for (std::size_t j = 0; j < i; ++j) {
                    Contact ct;
                    if (!rectContact(layer.rects[i], layer.rects[j], ct))
                        continue;
                    const double g =
                        kt * ct.length / (ct.halfA + ct.halfB);
                    sb.stampConductance(layer.nodeOffset + i,
                                        layer.nodeOffset + j, g);
                }
            }
        } else {
            for (std::size_t i = 0; i < count; ++i) {
                for (std::size_t j = 0; j < i; ++j) {
                    Contact ct;
                    if (!rectContact(layer.rects[i], layer.rects[j], ct))
                        continue;
                    const double g =
                        kt * ct.length / (ct.halfA + ct.halfB);
                    sb.stampConductance(layer.nodeOffset + i,
                                        layer.nodeOffset + j, g);
                }
            }
        }
    }

    // --- vertical conduction between consecutive layers -------------------
    for (std::size_t li = 0; li + 1 < layers_.size(); ++li) {
        const Layer &a = layers_[li];
        const Layer &b = layers_[li + 1];
        const double half_r_per_area =
            0.5 * a.thickness / a.mat.conductivity +
            0.5 * b.thickness / b.mat.conductivity;
        const std::size_t cells = partition_.size();

        // Aligned die-footprint cells couple one-to-one.
        for (std::size_t i = 0; i < cells; ++i) {
            const double g = partition_[i].area() / half_r_per_area;
            sb.stampConductance(a.nodeOffset + i, b.nodeOffset + i, g);
        }
        // Strip-to-cell and strip-to-strip coupling via area overlap.
        auto couple = [&](std::size_t ia, std::size_t ib) {
            const Block &ra = a.rects[ia];
            const Block &rb = b.rects[ib];
            const double ov =
                ra.overlapArea(rb.x, rb.y, rb.right(), rb.top());
            if (ov <= 1e-9 * std::min(ra.area(), rb.area()))
                return;
            sb.stampConductance(a.nodeOffset + ia, b.nodeOffset + ib,
                                ov / half_r_per_area);
        };
        for (std::size_t ia = cells; ia < a.rects.size(); ++ia)
            for (std::size_t ib = 0; ib < b.rects.size(); ++ib)
                couple(ia, ib);
        for (std::size_t ib = cells; ib < b.rects.size(); ++ib)
            for (std::size_t ia = 0; ia < cells; ++ia)
                couple(ia, ib);
    }

    // --- boundary conditions ----------------------------------------------
    double primary_total = 0.0;
    if (pkg_.cooling == CoolingKind::AirSink) {
        // Distribute the lumped sink-to-ambient resistance and the
        // convection capacitance over the sink surface by area.
        const Layer &sink = layers_.front();
        const double sink_area =
            pkg_.airSink.sinkSide * pkg_.airSink.sinkSide;
        for (std::size_t i = 0; i < sink.rects.size(); ++i) {
            const double frac = sink.rects[i].area() / sink_area;
            const double g =
                frac / pkg_.airSink.sinkToAmbientResistance;
            const std::size_t node = sink.nodeOffset + i;
            sb.stampGroundConductance(node, g);
            grounds_.push_back({node, g, true});
            cap_[node] += frac * pkg_.airSink.convectionCapacitance;
            primary_total += g;
        }
    } else if (pkg_.cooling == CoolingKind::OilSilicon) {
        // Oil over the bare die top.
        const Layer &die = layers_[dieLayer];
        const double w = fp_.width();
        const double h = fp_.height();
        const bool split = oilNodeCount > 0;
        for (std::size_t i = 0; i < partition_.size(); ++i) {
            const Block &r = partition_[i];
            const double hc = oilCoefficient(r, 0.0, 0.0, w, h);
            const double g = hc * r.area();
            const double c_oil = oilCellCapacitance(r, 0.0, 0.0, w, h);
            const std::size_t die_node = die.nodeOffset + i;
            if (split) {
                const std::size_t oil_node = oilNodeOffset + i;
                sb.stampConductance(die_node, oil_node, 2.0 * g);
                sb.stampGroundConductance(oil_node, 2.0 * g);
                grounds_.push_back({oil_node, 2.0 * g, true});
                cap_[oil_node] += c_oil;
            } else {
                sb.stampGroundConductance(die_node, g);
                grounds_.push_back({die_node, g, true});
                cap_[die_node] += c_oil;
            }
            oilCapacitanceTotal += c_oil;
            primary_total += g;
        }
    } else if (pkg_.cooling == CoolingKind::Microchannel) {
        // Coolant in etched channels over a silicon base: film
        // conductance per cell, plus an upwind advection chain per
        // lane of cells along the flow. Heat leaves the network
        // carried by the outlet coolant, not through a ground
        // resistance.
        const MicrochannelSpec &mc = pkg_.microchannel;
        const Layer &base = layers_.front(); // "chbase"
        const double dx = mapping_->cellWidth();
        const double dy = mapping_->cellHeight();
        const std::size_t nx = opts_.gridNx;
        const std::size_t ny = opts_.gridNy;

        const bool along_x =
            mc.direction == FlowDirection::LeftToRight ||
            mc.direction == FlowDirection::RightToLeft;
        const double perp = along_x ? dy : dx;
        const double along = along_x ? dx : dy;
        const double pitch = mc.channelWidth + mc.wallWidth;

        // Per-cell wetted area: channels across the cell, each
        // wetted on the floor and both walls (silicon fins are
        // near-isothermal at these scales).
        const double a_wet = perp / pitch *
                             (mc.channelWidth +
                              2.0 * mc.channelHeight) *
                             along;
        const double g_film = mc.filmCoefficient() * a_wet;
        const double g_half_base =
            base.mat.conductivity * dx * dy /
            (0.5 * base.thickness);
        const double g_couple =
            1.0 / (1.0 / g_film + 1.0 / g_half_base);

        // rho cp times the coolant volume under the cell.
        const double c_fluid = mc.coolant.volumetricHeatCapacity() *
                               dx * dy * mc.porosity() *
                               mc.channelHeight;
        // Lane mass flow times cp (W/K).
        const double mcp = mc.coolant.volumetricHeatCapacity() *
                           mc.flowVelocity * perp * mc.porosity() *
                           mc.channelHeight;

        for (std::size_t iy = 0; iy < ny; ++iy) {
            for (std::size_t ix = 0; ix < nx; ++ix) {
                const std::size_t cell = mapping_->cellIndex(ix, iy);
                const std::size_t f = fluidNodeOffset + cell;
                sb.stampConductance(base.nodeOffset + cell, f,
                                    g_couple);
                cap_[f] += c_fluid;

                // Upwind neighbour along the flow; the first cell of
                // each lane drinks ambient coolant (rise zero).
                bool has_upstream = true;
                std::size_t up = 0;
                switch (mc.direction) {
                  case FlowDirection::LeftToRight:
                    has_upstream = ix > 0;
                    if (has_upstream)
                        up = mapping_->cellIndex(ix - 1, iy);
                    break;
                  case FlowDirection::RightToLeft:
                    has_upstream = ix + 1 < nx;
                    if (has_upstream)
                        up = mapping_->cellIndex(ix + 1, iy);
                    break;
                  case FlowDirection::BottomToTop:
                    has_upstream = iy > 0;
                    if (has_upstream)
                        up = mapping_->cellIndex(ix, iy - 1);
                    break;
                  case FlowDirection::TopToBottom:
                    has_upstream = iy + 1 < ny;
                    if (has_upstream)
                        up = mapping_->cellIndex(ix, iy + 1);
                    break;
                }
                sb.add(f, f, mcp);
                if (has_upstream)
                    sb.add(f, fluidNodeOffset + up, -mcp);

                // Outlet cells carry the heat out of the model.
                bool is_outlet = false;
                switch (mc.direction) {
                  case FlowDirection::LeftToRight:
                    is_outlet = ix + 1 == nx;
                    break;
                  case FlowDirection::RightToLeft:
                    is_outlet = ix == 0;
                    break;
                  case FlowDirection::BottomToTop:
                    is_outlet = iy + 1 == ny;
                    break;
                  case FlowDirection::TopToBottom:
                    is_outlet = iy == 0;
                    break;
                }
                if (is_outlet)
                    outlets_.push_back({f, mcp});
            }
        }

        // Effective single-resistance diagnostic: film plus the
        // standard half-caloric term.
        const std::size_t lanes = along_x ? ny : nx;
        const double mcp_total = mcp * static_cast<double>(lanes);
        const double g_film_total =
            g_film * static_cast<double>(nx * ny);
        primary_total = 1.0 / (1.0 / g_film_total +
                               1.0 / (2.0 * mcp_total));
    } else {
        // Natural convection off the bare die.
        const Layer &die = layers_[dieLayer];
        for (std::size_t i = 0; i < partition_.size(); ++i) {
            const double g = pkg_.naturalConvection.coefficient *
                             partition_[i].area();
            const std::size_t node = die.nodeOffset + i;
            sb.stampGroundConductance(node, g);
            grounds_.push_back({node, g, true});
            primary_total += g;
        }
    }
    primaryConductance = primary_total;

    if (pkg_.secondary.enabled) {
        const Layer &pcb = layers_.back();
        if (pkg_.cooling == CoolingKind::OilSilicon) {
            // Second oil stream under the PCB (paper Fig. 1).
            double x0 = 1e300, y0 = 1e300, x1 = -1e300, y1 = -1e300;
            for (const Block &r : pcb.rects) {
                x0 = std::min(x0, r.x);
                y0 = std::min(y0, r.y);
                x1 = std::max(x1, r.right());
                y1 = std::max(y1, r.top());
            }
            for (std::size_t i = 0; i < pcb.rects.size(); ++i) {
                const Block &r = pcb.rects[i];
                const double hc = oilCoefficient(r, x0, y0, x1, y1);
                const double g = hc * r.area();
                const std::size_t node = pcb.nodeOffset + i;
                sb.stampGroundConductance(node, g);
                grounds_.push_back({node, g, false});
                cap_[node] += oilCellCapacitance(r, x0, y0, x1, y1);
            }
        } else {
            // Natural convection off the PCB bottom.
            for (std::size_t i = 0; i < pcb.rects.size(); ++i) {
                const double g = pkg_.secondary.pcbNaturalConvection *
                                 pcb.rects[i].area();
                const std::size_t node = pcb.nodeOffset + i;
                sb.stampGroundConductance(node, g);
                grounds_.push_back({node, g, false});
            }
        }
    }

    g_ = sb.build();
    if (!advection && !g_.isSymmetric(1e-9))
        panic("StackModel: assembled conductance matrix not symmetric");
    if (opts_.mode == ModelMode::Grid && !advection) {
        planes_.nx = opts_.gridNx;
        planes_.ny = opts_.gridNy;
        for (std::size_t li = 0; li < layers_.size(); ++li) {
            if (li == dieLayer && split_oil)
                planes_.planeOffsets.push_back(oilNodeOffset);
            planes_.planeOffsets.push_back(layers_[li].nodeOffset);
        }
    }
    for (std::size_t i = 0; i < cap_.size(); ++i) {
        if (cap_[i] <= 0.0)
            panic("StackModel: non-positive capacitance at node ",
                  nodeNames_[i]);
    }
}

const std::string &
StackModel::nodeName(std::size_t node) const
{
    return nodeNames_.at(node);
}

const std::vector<StackModel::GroundStamp> &
StackModel::groundStamps() const
{
    return grounds_;
}

const PlaneLayout *
StackModel::planeLayout() const
{
    return planes_.planeOffsets.empty() ? nullptr : &planes_;
}

std::size_t
StackModel::siliconNodeBegin() const
{
    return layers_[dieLayer].nodeOffset;
}

std::vector<double>
StackModel::nodePowerVector(const std::vector<double> &block_powers) const
{
    std::vector<double> p;
    nodePowerVector(block_powers, p);
    return p;
}

void
StackModel::nodePowerVector(const std::vector<double> &block_powers,
                            std::vector<double> &out) const
{
    if (block_powers.size() != fp_.blockCount())
        fatal("nodePowerVector: expected ", fp_.blockCount(),
              " block powers, got ", block_powers.size());
    out.assign(nodeCount(), 0.0);
    double *silicon = out.data() + siliconNodeBegin();
    if (opts_.mode == ModelMode::Block)
        std::copy(block_powers.begin(), block_powers.end(), silicon);
    else
        mapping_->blockPowersToCells(block_powers, silicon);
}

std::vector<double>
StackModel::siliconCellTemperatures(
    const std::vector<double> &node_temps) const
{
    if (node_temps.size() != nodeCount())
        fatal("siliconCellTemperatures: node vector size mismatch");
    const std::size_t off = siliconNodeBegin();
    return {node_temps.begin() + static_cast<std::ptrdiff_t>(off),
            node_temps.begin() +
                static_cast<std::ptrdiff_t>(off + partition_.size())};
}

std::vector<double>
StackModel::blockTemperatures(const std::vector<double> &node_temps) const
{
    const std::vector<double> cells = siliconCellTemperatures(node_temps);
    if (opts_.mode == ModelMode::Block)
        return cells;
    return mapping_->cellTemperaturesToBlocks(cells);
}

std::vector<double>
StackModel::blockMaxTemperatures(
    const std::vector<double> &node_temps) const
{
    const std::vector<double> cells = siliconCellTemperatures(node_temps);
    if (opts_.mode == ModelMode::Block)
        return cells;
    return mapping_->cellMaximaToBlocks(cells);
}

std::vector<double>
StackModel::steadyNodeTemperatures(
    const std::vector<double> &block_powers) const
{
    return steadyNodeTemperatures(block_powers, SteadySolveOptions{});
}

bool
StackModel::trySuperposedSteady(const std::vector<double> &block_powers,
                                const std::vector<double> &node_powers,
                                const SteadySolveOptions &solve_opts,
                                SteadySolveInfo *info,
                                std::vector<double> &out) const
{
    ImpulseResponseCache &cache = ImpulseResponseCache::global();
    bool wasHit = false;
    std::shared_ptr<const ImpulseResponseMatrix> matrix;
    try {
        matrix = cache.acquire(
            solve_opts.stackKey,
            [&]() { return buildImpulseResponse(solve_opts); },
            &wasHit);
    } catch (const std::exception &e) {
        // An impulse solve failed even through the fallback chain;
        // let the per-job iterative path make its own attempt.
        warn("impulse-response build failed: ", e.what());
        return false;
    }
    if (!matrix)
        return false;

    obs::ScopedSpan span("core.steady_solve");
    span.attr("nodes", cap_.size())
        .attr("tier", "superposition")
        .attr("cache_hit", wasHit ? "yes" : "no");
    std::vector<double> rise;
    matrix->superpose(block_powers, rise);

    // Trust discipline: the GEMV answer is accepted only when it
    // passes the same independent residual check the iterative tiers
    // face. RobustSolveOptions{}.residualSlack keeps the bound
    // identical to the chain's; a cached matrix of another size (a
    // stack-hash collision) fails outright.
    const CsrOperator gop(g_);
    std::vector<double> resid;
    const SolutionCheck v =
        rise.size() == cap_.size()
            ? checkSolution(gop, node_powers, rise, solve_opts.tolerance,
                            RobustSolveOptions{}.residualSlack, resid)
            : SolutionCheck{};
    if (!v.ok()) {
        warn("superposed steady solve failed verification "
                "(residual ", v.residualNorm, " > bound ", v.bound,
                "); demoting stack ", solve_opts.stackKey,
                " to the iterative chain");
        cache.invalidate(solve_opts.stackKey);
        span.attr("verified", "no");
        return false;
    }
    span.attr("verified", "yes");
    auto &reg = obs::MetricsRegistry::global();
    reg.counter("core.steady.solves").add();
    reg.counter("core.steady.superposed").add();
    if (info != nullptr) {
        info->iterations = 0;
        info->residualNorm = v.residualNorm;
        info->initialResidualNorm = v.residualNorm;
        info->warmStarted = false;
        info->fallbackTier = 0;
        info->method = "superposition";
        info->impulseCacheHit = wasHit;
    }
    out = std::move(rise);
    for (double &t : out)
        t += pkg_.ambient;
    return true;
}

std::shared_ptr<ImpulseResponseMatrix>
StackModel::buildImpulseResponse(const SteadySolveOptions &solve_opts) const
{
    const std::size_t blocks = floorplan().blockCount();
    const std::size_t nodes = cap_.size();
    obs::ScopedSpan span("core.impulse_build");
    span.attr("blocks", blocks).attr("nodes", nodes);
    auto m = std::make_shared<ImpulseResponseMatrix>();
    m->nodes = nodes;
    m->blocks = blocks;
    m->values.resize(nodes * blocks);
    std::vector<double> unit(blocks, 0.0), pb;
    const auto unitPower = [&](std::size_t b) {
        unit[b] = 1.0;
        nodePowerVector(unit, pb);
        unit[b] = 0.0;
    };
    std::unique_ptr<SparseCholesky> chol =
        factorWithinCap(g_, "impulse build");
    const bool direct = chol != nullptr;
    if (direct) {
        // The unit-power columns are solved in place, and the factor
        // is freed before any column is checked.
        for (std::size_t b = 0; b < blocks; ++b) {
            unitPower(b);
            std::copy(pb.begin(), pb.end(),
                      m->values.begin() +
                          static_cast<std::ptrdiff_t>(b * nodes));
        }
        chol->solve(m->values, blocks);
        chol.reset();
    }

    // Every direct column faces the check the iterative tiers face;
    // one that fails, and every column without a factor, is solved
    // through the verified chain. The operator builds its MG
    // hierarchy on the first such column and shares it with the rest.
    RobustSolveOptions ropts;
    ropts.iterative.tolerance = solve_opts.tolerance;
    ropts.iterative.maxIterations = solve_opts.maxIterations;
    ropts.iterative.preconditioner = solve_opts.preconditioner;
    ropts.symmetric = true;
    ropts.scope = FaultInjector::currentContext();
    const CsrOperator gop(g_);
    const StackOperator op(g_, planeLayout());
    DirectCheck check("impulse build");
    CgWorkspace ws;
    std::vector<double> xb;
    std::size_t demoted = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
        const auto col = m->values.begin() +
                         static_cast<std::ptrdiff_t>(b * nodes);
        unitPower(b);
        if (direct) {
            xb.assign(col, col + static_cast<std::ptrdiff_t>(nodes));
            if (check.accept(gop, pb, xb, solve_opts.tolerance))
                continue;
            ++demoted;
        }
        const RobustSolveResult rob =
            robustSolve(op, &g_, pb, {}, ropts, &ws);
        std::copy(rob.solve.x.begin(), rob.solve.x.end(), col);
    }
    span.attr("method", direct ? "direct" : "iterative")
        .attr("demoted", demoted);
    return m;
}

std::vector<double>
StackModel::steadyNodeTemperatures(
    const std::vector<double> &block_powers,
    const SteadySolveOptions &solve_opts, SteadySolveInfo *info) const
{
    const std::vector<double> p = nodePowerVector(block_powers);
    IterativeOptions opts;
    opts.tolerance = solve_opts.tolerance;
    opts.maxIterations = solve_opts.maxIterations;
    opts.preconditioner = solve_opts.preconditioner;

    if (solve_opts.superposition && solve_opts.stackKey != 0 &&
        !advection && solve_opts.warmStart == nullptr) {
        std::vector<double> answer;
        if (trySuperposedSteady(block_powers, p, solve_opts, info,
                                answer))
            return answer;
        // Verification miss or failed build: fall through to the
        // iterative chain below.
    }

    std::vector<double> x0;
    bool warm = false;
    if (solve_opts.warmStart != nullptr &&
        solve_opts.warmStart->size() == cap_.size()) {
        x0 = *solve_opts.warmStart;
        warm = true;
    }
    auto &reg = obs::MetricsRegistry::global();
    obs::ScopedTimer timer(reg.timer("core.steady.solve_time"));
    obs::ScopedSpan span("core.steady_solve");
    span.attr("nodes", cap_.size()).attr("warm_start",
                                         warm ? "yes" : "no");
    IterativeResult res;
    int tier = 0;
    std::string method;
    const StackOperator op(g_, planeLayout());
    if (solve_opts.fallback) {
        RobustSolveOptions ropts;
        ropts.iterative = opts;
        ropts.symmetric = !advection;
        ropts.scope = FaultInjector::currentContext();
        RobustSolveResult rob = robustSolve(op, &g_, p, x0, ropts);
        res = std::move(rob.solve);
        tier = rob.fallbackTier;
        method = std::move(rob.method);
    } else {
        res = advection ? biCgStab(g_, p, x0, opts)
                        : conjugateGradient(op, p, x0, opts);
        if (!res.converged) {
            numericError("steadyNodeTemperatures: solver failed, "
                         "residual ", res.residualNorm);
        }
    }
    reg.counter("core.steady.solves").add();
    if (warm)
        reg.counter("core.steady.warm_starts").add();
    reg.histogram("core.steady.cg_iterations")
        .observe(static_cast<double>(res.iterations));
    span.attr("iterations", res.iterations).attr("tier", tier);
    if (!method.empty())
        span.attr("method", method);
    if (info != nullptr) {
        info->iterations = res.iterations;
        info->residualNorm = res.residualNorm;
        info->initialResidualNorm = res.initialResidualNorm;
        info->warmStarted = warm;
        info->fallbackTier = tier;
        info->method = std::move(method);
    }
    for (double &t : res.x)
        t += pkg_.ambient;
    return res.x;
}

std::vector<double>
StackModel::steadyBlockTemperatures(
    const std::vector<double> &block_powers) const
{
    return blockTemperatures(steadyNodeTemperatures(block_powers));
}

double
StackModel::equivalentPrimaryResistance() const
{
    return 1.0 / primaryConductance;
}

double
StackModel::heatThroughPrimary(
    const std::vector<double> &node_temps) const
{
    double q = 0.0;
    for (const GroundStamp &gs : grounds_) {
        if (gs.primary)
            q += gs.conductance * (node_temps[gs.node] - pkg_.ambient);
    }
    // Heat advected away by outlet coolant (microchannel).
    for (const AdvectionOutlet &out : outlets_)
        q += out.mcp * (node_temps[out.node] - pkg_.ambient);
    return q;
}

double
StackModel::heatThroughSecondary(
    const std::vector<double> &node_temps) const
{
    double q = 0.0;
    for (const GroundStamp &gs : grounds_) {
        if (!gs.primary)
            q += gs.conductance * (node_temps[gs.node] - pkg_.ambient);
    }
    return q;
}

double
StackModel::siliconCapacitance() const
{
    return pkg_.dieMaterial.volumetricHeatCapacity * pkg_.dieThickness *
           fp_.width() * fp_.height();
}

double
StackModel::siliconVerticalResistance() const
{
    return pkg_.dieThickness /
           (pkg_.dieMaterial.conductivity * fp_.width() * fp_.height());
}

} // namespace irtherm
