#include "dtm/sensor.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace irtherm
{

namespace
{

/**
 * Silicon temperature at a die point: the partition cell containing
 * it (grid mode: the grid cell, block mode: the functional block).
 */
double
siliconTemperatureAt(const StackModel &model,
                     const std::vector<double> &node_temps, double x,
                     double y)
{
    const std::vector<double> cells =
        model.siliconCellTemperatures(node_temps);
    const std::vector<Block> &part = model.partition();
    for (std::size_t i = 0; i < part.size(); ++i) {
        const Block &b = part[i];
        if (x >= b.x && x < b.right() && y >= b.y && y < b.top())
            return cells[i];
    }
    fatal("sensor at (", x, ",", y, ") lies outside the die");
}

} // namespace

SensorArray::SensorArray(std::vector<SensorSpec> sensors)
    : sensors_(std::move(sensors))
{
    if (sensors_.empty())
        fatal("SensorArray: no sensors");
}

const SensorSpec &
SensorArray::sensor(std::size_t i) const
{
    return sensors_.at(i);
}

std::vector<double>
SensorArray::read(const StackModel &model,
                  const std::vector<double> &node_temps, Rng &rng) const
{
    static obs::Counter &reads =
        obs::MetricsRegistry::global().counter("dtm.sensor.reads");
    reads.add(sensors_.size());
    std::vector<double> out(sensors_.size());
    for (std::size_t i = 0; i < sensors_.size(); ++i) {
        const SensorSpec &s = sensors_[i];
        double t = siliconTemperatureAt(model, node_temps, s.x, s.y);
        if (s.noiseSigma > 0.0)
            t += rng.gaussian(0.0, s.noiseSigma);
        if (s.quantization > 0.0)
            t = std::round(t / s.quantization) * s.quantization;
        out[i] = t;
    }
    return out;
}

double
SensorArray::readMax(const StackModel &model,
                     const std::vector<double> &node_temps,
                     Rng &rng) const
{
    const std::vector<double> r = read(model, node_temps, rng);
    const double sensed = *std::max_element(r.begin(), r.end());
    IRTHERM_EVENT("dtm.sensor.read_max", {"temp_k", sensed},
                  {"sensors", r.size()});
    return sensed;
}

namespace placement
{

std::vector<SensorSpec>
perBlockCenters(const Floorplan &fp)
{
    std::vector<SensorSpec> out;
    out.reserve(fp.blockCount());
    for (const Block &b : fp.blocks())
        out.push_back({b.name, b.centerX(), b.centerY(), 0.0, 0.0});
    return out;
}

std::vector<SensorSpec>
uniformGrid(const Floorplan &fp, std::size_t nx, std::size_t ny)
{
    if (nx == 0 || ny == 0)
        fatal("placement::uniformGrid: zero dimension");
    std::vector<SensorSpec> out;
    const double dx = fp.width() / static_cast<double>(nx);
    const double dy = fp.height() / static_cast<double>(ny);
    for (std::size_t iy = 0; iy < ny; ++iy) {
        for (std::size_t ix = 0; ix < nx; ++ix) {
            out.push_back({"s" + std::to_string(ix) + "_" +
                               std::to_string(iy),
                           (static_cast<double>(ix) + 0.5) * dx,
                           (static_cast<double>(iy) + 0.5) * dy, 0.0,
                           0.0});
        }
    }
    return out;
}

std::vector<SensorSpec>
hottestGuided(const std::vector<double> &cell_temps, std::size_t nx,
              std::size_t ny, double die_w, double die_h,
              std::size_t count, double min_separation)
{
    if (cell_temps.size() != nx * ny)
        fatal("placement::hottestGuided: map size mismatch");
    if (count == 0)
        fatal("placement::hottestGuided: zero sensor count");

    // Cells sorted hottest first.
    std::vector<std::size_t> order(cell_temps.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return cell_temps[a] > cell_temps[b];
              });

    const double dx = die_w / static_cast<double>(nx);
    const double dy = die_h / static_cast<double>(ny);
    std::vector<SensorSpec> out;
    for (std::size_t idx : order) {
        if (out.size() >= count)
            break;
        const double x =
            (static_cast<double>(idx % nx) + 0.5) * dx;
        const double y =
            (static_cast<double>(idx / nx) + 0.5) * dy;
        bool keep = true;
        for (const SensorSpec &s : out) {
            const double d =
                std::hypot(x - s.x, y - s.y);
            if (d < min_separation) {
                keep = false;
                break;
            }
        }
        if (keep) {
            out.push_back({"hot" + std::to_string(out.size()), x, y,
                           0.0, 0.0});
        }
    }
    if (out.size() < count) {
        warn("placement::hottestGuided: only ", out.size(), " of ",
             count, " sensors placed");
    }
    return out;
}

std::vector<SensorSpec>
minimaxGuided(const std::vector<std::vector<double>> &maps,
              std::size_t nx, std::size_t ny, double die_w,
              double die_h, std::size_t count)
{
    if (maps.empty())
        fatal("placement::minimaxGuided: no maps");
    if (count == 0)
        fatal("placement::minimaxGuided: zero sensor count");
    for (const auto &m : maps) {
        if (m.size() != nx * ny)
            fatal("placement::minimaxGuided: map size mismatch");
    }

    const double dx = die_w / static_cast<double>(nx);
    const double dy = die_h / static_cast<double>(ny);
    std::vector<double> map_max(maps.size());
    for (std::size_t m = 0; m < maps.size(); ++m) {
        map_max[m] =
            *std::max_element(maps[m].begin(), maps[m].end());
    }

    // best_reading[m]: hottest sensor cell chosen so far, per map.
    std::vector<double> best_reading(maps.size(), -1e300);
    std::vector<SensorSpec> out;
    for (std::size_t k = 0; k < count; ++k) {
        double best_worst = 1e300;
        std::size_t best_cell = 0;
        for (std::size_t cell = 0; cell < nx * ny; ++cell) {
            double worst = 0.0;
            for (std::size_t m = 0; m < maps.size(); ++m) {
                const double reading =
                    std::max(best_reading[m], maps[m][cell]);
                worst = std::max(worst, map_max[m] - reading);
            }
            if (worst < best_worst) {
                best_worst = worst;
                best_cell = cell;
            }
        }
        for (std::size_t m = 0; m < maps.size(); ++m) {
            best_reading[m] =
                std::max(best_reading[m], maps[m][best_cell]);
        }
        out.push_back(
            {"mm" + std::to_string(k),
             (static_cast<double>(best_cell % nx) + 0.5) * dx,
             (static_cast<double>(best_cell / nx) + 0.5) * dy, 0.0,
             0.0});
    }
    return out;
}

} // namespace placement

double
mapSensingError(const std::vector<double> &cell_temps, std::size_t nx,
                std::size_t ny, double die_w, double die_h,
                const std::vector<SensorSpec> &sensors)
{
    if (cell_temps.size() != nx * ny)
        fatal("mapSensingError: map size mismatch");
    if (sensors.empty())
        fatal("mapSensingError: no sensors");
    const double dx = die_w / static_cast<double>(nx);
    const double dy = die_h / static_cast<double>(ny);
    double sensed = -1e300;
    for (const SensorSpec &s : sensors) {
        const auto ix = std::min(
            nx - 1, static_cast<std::size_t>(
                        std::max(0.0, std::floor(s.x / dx))));
        const auto iy = std::min(
            ny - 1, static_cast<std::size_t>(
                        std::max(0.0, std::floor(s.y / dy))));
        sensed = std::max(sensed, cell_temps[iy * nx + ix]);
    }
    const double true_max =
        *std::max_element(cell_temps.begin(), cell_temps.end());
    return std::max(0.0, true_max - sensed);
}

double
worstCaseSensingError(const StackModel &model,
                      const std::vector<double> &node_temps,
                      const std::vector<SensorSpec> &sensors)
{
    const std::vector<double> cells =
        model.siliconCellTemperatures(node_temps);
    const double true_max =
        *std::max_element(cells.begin(), cells.end());

    SensorArray arr(sensors);
    Rng rng; // sensors are noise-free in this metric
    const double sensed =
        arr.readMax(model, node_temps, rng);
    return std::max(0.0, true_max - sensed);
}

} // namespace irtherm
