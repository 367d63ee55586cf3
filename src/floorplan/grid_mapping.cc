#include "floorplan/grid_mapping.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace irtherm
{

GridMapping::GridMapping(const Floorplan &fp_, std::size_t nx,
                         std::size_t ny)
    : fp(fp_), nx_(nx), ny_(ny)
{
    if (nx == 0 || ny == 0)
        fatal("GridMapping: zero grid dimension");
    dx = fp.width() / static_cast<double>(nx);
    dy = fp.height() / static_cast<double>(ny);

    blockEntries.resize(fp.blockCount());
    for (std::size_t b = 0; b < fp.blockCount(); ++b) {
        const Block &blk = fp.block(b);
        const double barea = blk.area();

        // Only cells inside the block's bbox can overlap it.
        const auto ix0 = static_cast<std::size_t>(
            std::max(0.0, std::floor(blk.x / dx)));
        const auto iy0 = static_cast<std::size_t>(
            std::max(0.0, std::floor(blk.y / dy)));
        const auto ix1 = std::min(
            nx_, static_cast<std::size_t>(std::ceil(blk.right() / dx)));
        const auto iy1 = std::min(
            ny_, static_cast<std::size_t>(std::ceil(blk.top() / dy)));

        for (std::size_t iy = iy0; iy < iy1; ++iy) {
            for (std::size_t ix = ix0; ix < ix1; ++ix) {
                const double x0 = static_cast<double>(ix) * dx;
                const double y0 = static_cast<double>(iy) * dy;
                const double ov =
                    blk.overlapArea(x0, y0, x0 + dx, y0 + dy);
                if (ov <= 0.0)
                    continue;
                blockEntries[b].push_back(
                    {cellIndex(ix, iy), ov / (dx * dy), ov / barea});
            }
        }
        if (blockEntries[b].empty()) {
            fatal("GridMapping: block '", blk.name,
                  "' covers no grid cell");
        }
    }
}

double
GridMapping::cellCenterX(std::size_t ix) const
{
    return (static_cast<double>(ix) + 0.5) * dx;
}

double
GridMapping::cellCenterY(std::size_t iy) const
{
    return (static_cast<double>(iy) + 0.5) * dy;
}

std::vector<double>
GridMapping::blockPowersToCells(
    const std::vector<double> &block_powers) const
{
    std::vector<double> cell_powers(cellCount());
    blockPowersToCells(block_powers, cell_powers.data());
    return cell_powers;
}

void
GridMapping::blockPowersToCells(const std::vector<double> &block_powers,
                                double *cells) const
{
    if (block_powers.size() != fp.blockCount())
        fatal("blockPowersToCells: power vector size mismatch");
    std::fill(cells, cells + cellCount(), 0.0);
    for (std::size_t b = 0; b < blockEntries.size(); ++b) {
        for (const Entry &e : blockEntries[b])
            cells[e.cell] += block_powers[b] * e.blockFraction;
    }
}

std::vector<double>
GridMapping::cellTemperaturesToBlocks(
    const std::vector<double> &cell_temps) const
{
    if (cell_temps.size() != cellCount())
        fatal("cellTemperaturesToBlocks: size mismatch");
    std::vector<double> block_temps(blockEntries.size(), 0.0);
    for (std::size_t b = 0; b < blockEntries.size(); ++b) {
        double acc = 0.0;
        double wsum = 0.0;
        for (const Entry &e : blockEntries[b]) {
            acc += cell_temps[e.cell] * e.blockFraction;
            wsum += e.blockFraction;
        }
        block_temps[b] = acc / wsum;
    }
    return block_temps;
}

std::vector<double>
GridMapping::cellMaximaToBlocks(
    const std::vector<double> &cell_temps) const
{
    if (cell_temps.size() != cellCount())
        fatal("cellMaximaToBlocks: size mismatch");
    std::vector<double> block_max(blockEntries.size(),
                                  -1e300);
    for (std::size_t b = 0; b < blockEntries.size(); ++b) {
        for (const Entry &e : blockEntries[b]) {
            block_max[b] = std::max(block_max[b], cell_temps[e.cell]);
        }
    }
    return block_max;
}

double
GridMapping::coverage(std::size_t blk, std::size_t cell) const
{
    for (const Entry &e : blockEntries.at(blk)) {
        if (e.cell == cell)
            return e.cellFraction;
    }
    return 0.0;
}

} // namespace irtherm
