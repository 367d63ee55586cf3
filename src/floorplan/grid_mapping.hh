/**
 * @file
 * Rasterization of a floorplan onto a regular grid.
 *
 * The grid-mode thermal model distributes each block's power over
 * the cells it covers (by area fraction) and reads a block's
 * temperature back as the area-weighted mean of its cells. This
 * mapping is computed once per (floorplan, resolution) pair.
 */

#ifndef IRTHERM_FLOORPLAN_GRID_MAPPING_HH
#define IRTHERM_FLOORPLAN_GRID_MAPPING_HH

#include <cstddef>
#include <vector>

#include "floorplan/floorplan.hh"

namespace irtherm
{

/**
 * Area-fraction mapping between floorplan blocks and grid cells.
 *
 * Cells are indexed row-major: cell(ix, iy) = iy * nx + ix, with
 * ix increasing along +x (left to right) and iy along +y (bottom to
 * top), matching the floorplan coordinate system.
 */
class GridMapping
{
  public:
    /**
     * @param fp  the floorplan (blocks must lie inside its bbox)
     * @param nx  cells along x
     * @param ny  cells along y
     */
    GridMapping(const Floorplan &fp, std::size_t nx, std::size_t ny);

    std::size_t nx() const { return nx_; }
    std::size_t ny() const { return ny_; }
    std::size_t cellCount() const { return nx_ * ny_; }
    double cellWidth() const { return dx; }
    double cellHeight() const { return dy; }
    double cellArea() const { return dx * dy; }

    std::size_t
    cellIndex(std::size_t ix, std::size_t iy) const
    {
        return iy * nx_ + ix;
    }

    /** x-coordinate of a cell's centre. */
    double cellCenterX(std::size_t ix) const;
    /** y-coordinate of a cell's centre. */
    double cellCenterY(std::size_t iy) const;

    /**
     * Distribute per-block powers (W) to per-cell powers (W).
     * Power is spread uniformly over each block's footprint.
     */
    std::vector<double>
    blockPowersToCells(const std::vector<double> &block_powers) const;

    /** As above, into @p cells (cellCount() entries, overwritten). */
    void blockPowersToCells(const std::vector<double> &block_powers,
                            double *cells) const;

    /**
     * Area-weighted mean cell temperature per block.
     */
    std::vector<double>
    cellTemperaturesToBlocks(const std::vector<double> &cell_temps) const;

    /** Maximum cell temperature inside each block's footprint. */
    std::vector<double>
    cellMaximaToBlocks(const std::vector<double> &cell_temps) const;

    /**
     * Fraction of cell @p cell covered by block @p blk (0 when the
     * block does not touch the cell).
     */
    double coverage(std::size_t blk, std::size_t cell) const;

  private:
    struct Entry
    {
        std::size_t cell;
        double cellFraction;  ///< fraction of the cell's area
        double blockFraction; ///< fraction of the block's area
    };

    const Floorplan &fp;
    std::size_t nx_;
    std::size_t ny_;
    double dx;
    double dy;
    /** Per block: the cells it covers. */
    std::vector<std::vector<Entry>> blockEntries;
};

} // namespace irtherm

#endif // IRTHERM_FLOORPLAN_GRID_MAPPING_HH
