#include "dtm/ir_camera.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace irtherm
{

double
IrFrame::maxPixel() const
{
    return *std::max_element(pixels.begin(), pixels.end());
}

double
IrFrame::minPixel() const
{
    return *std::min_element(pixels.begin(), pixels.end());
}

IrCamera::IrCamera(const IrCameraSpec &spec) : spec_(spec)
{
    if (spec_.frameInterval <= 0.0)
        fatal("IrCamera: non-positive frame interval");
    if (spec_.exposureFraction <= 0.0 || spec_.exposureFraction > 1.0)
        fatal("IrCamera: exposure fraction must be in (0, 1]");
    if (spec_.pixelBinning == 0)
        fatal("IrCamera: zero pixel binning");
}

std::vector<IrFrame>
IrCamera::capture(double sample_interval,
                  const std::vector<std::vector<double>> &fields,
                  std::size_t nx, std::size_t ny) const
{
    if (fields.empty())
        fatal("IrCamera::capture: no fields");
    if (sample_interval <= 0.0)
        fatal("IrCamera::capture: non-positive sample interval");
    if (sample_interval > spec_.frameInterval) {
        fatal("IrCamera::capture: samples coarser than the frame "
              "interval");
    }
    for (const auto &f : fields) {
        if (f.size() != nx * ny)
            fatal("IrCamera::capture: field size mismatch");
    }
    if (nx % spec_.pixelBinning != 0 || ny % spec_.pixelBinning != 0)
        fatal("IrCamera::capture: binning does not divide resolution");

    const auto samples_per_frame = static_cast<std::size_t>(
        std::round(spec_.frameInterval / sample_interval));
    const auto exposure_samples = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::round(
               spec_.exposureFraction *
               static_cast<double>(samples_per_frame))));

    const std::size_t bin = spec_.pixelBinning;
    const std::size_t px = nx / bin;
    const std::size_t py = ny / bin;

    std::vector<IrFrame> frames;
    for (std::size_t end = samples_per_frame; end <= fields.size();
         end += samples_per_frame) {
        // Time-average over the exposure window ending at the frame.
        std::vector<double> acc(nx * ny, 0.0);
        const std::size_t begin = end - exposure_samples;
        for (std::size_t s = begin; s < end; ++s) {
            for (std::size_t i = 0; i < acc.size(); ++i)
                acc[i] += fields[s][i];
        }
        for (double &v : acc)
            v /= static_cast<double>(exposure_samples);

        // Spatial binning.
        IrFrame frame;
        frame.time =
            static_cast<double>(end) * sample_interval;
        frame.nx = px;
        frame.ny = py;
        frame.pixels.assign(px * py, 0.0);
        for (std::size_t iy = 0; iy < ny; ++iy) {
            for (std::size_t ix = 0; ix < nx; ++ix) {
                frame.pixels[(iy / bin) * px + ix / bin] +=
                    acc[iy * nx + ix];
            }
        }
        const double cells_per_pixel =
            static_cast<double>(bin * bin);
        for (double &v : frame.pixels)
            v /= cells_per_pixel;
        IRTHERM_EVENT("dtm.ir_camera.frame",
                      {"sim_time_s", frame.time},
                      {"pixels", frame.pixels.size()});
        frames.push_back(std::move(frame));
    }
    static obs::Counter &captured =
        obs::MetricsRegistry::global().counter("dtm.ir_camera.frames");
    captured.add(frames.size());
    return frames;
}

std::size_t
countViolations(const std::vector<double> &values, double threshold)
{
    std::size_t runs = 0;
    bool in_run = false;
    for (double v : values) {
        if (v > threshold) {
            if (!in_run) {
                ++runs;
                in_run = true;
            }
        } else {
            in_run = false;
        }
    }
    return runs;
}

} // namespace irtherm
