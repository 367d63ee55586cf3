#include "obs/span.hh"

#include <algorithm>

#include "base/logging.hh"

namespace irtherm::obs
{

/**
 * Per-thread live-span state. Owned by a thread_local (so a thread
 * unregisters itself on exit) and listed in the recorder's thread
 * table so livePaths() can walk every stack.
 *
 * Lock order: recorder.threadsMu before slot.mu, everywhere both
 * are held.
 */
struct SpanRecorder::ThreadSlot
{
    struct Frame
    {
        std::uint64_t id = 0;
        std::string name;
        double startSeconds = 0.0;
    };

    SpanRecorder *owner = nullptr;
    std::uint32_t index = 0;
    mutable std::mutex mu; ///< protects label + frames
    std::string label;
    std::vector<Frame> frames;

    ~ThreadSlot()
    {
        if (owner == nullptr)
            return;
        std::lock_guard<std::mutex> lock(owner->threadsMu);
        auto &list = owner->threads;
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (list[i] == this) {
                list.erase(list.begin() +
                           static_cast<std::ptrdiff_t>(i));
                break;
            }
        }
    }
};

SpanRecorder::SpanRecorder(std::size_t capacity_) : cap(capacity_)
{
    if (cap == 0)
        fatal("SpanRecorder: zero capacity");
    ring.resize(cap);
}

void
SpanRecorder::setEnabled(bool enabled_)
{
    on.store(enabled_, std::memory_order_relaxed);
}

void
SpanRecorder::setCapacity(std::size_t capacity_)
{
    if (capacity_ == 0)
        fatal("SpanRecorder: zero capacity");
    std::lock_guard<std::mutex> lock(mu);
    cap = capacity_;
    ring.assign(cap, SpanRecord{});
    head = 0;
    count = 0;
}

std::size_t
SpanRecorder::capacity() const
{
    std::lock_guard<std::mutex> lock(mu);
    return cap;
}

void
SpanRecorder::record(SpanRecord rec)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mu);
    SpanRecord &slot = ring[head];
    if (count == cap)
        ++droppedCount; // overwriting the oldest record
    else
        ++count;
    slot = std::move(rec);
    head = (head + 1) % cap;
    ++total;
}

void
SpanRecorder::recordInstant(std::string name,
                            std::vector<EventField> fields)
{
    SpanRecorder &g = global();
    if (!g.enabled())
        return;
    SpanRecord rec;
    rec.name = std::move(name);
    rec.attrs = std::move(fields);
    rec.instant = true;
    ThreadSlot &slot = threadSlot();
    rec.threadIndex = slot.index;
    rec.startSeconds = monotonicSeconds();
    {
        std::lock_guard<std::mutex> lock(slot.mu);
        rec.parentId = slot.frames.empty() ? 0 : slot.frames.back().id;
        rec.depth = static_cast<std::uint32_t>(slot.frames.size());
    }
    g.record(std::move(rec));
}

std::size_t
SpanRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return count;
}

std::uint64_t
SpanRecorder::recorded() const
{
    std::lock_guard<std::mutex> lock(mu);
    return total;
}

std::uint64_t
SpanRecorder::dropped() const
{
    std::lock_guard<std::mutex> lock(mu);
    return droppedCount;
}

std::vector<SpanRecord>
SpanRecorder::snapshot() const
{
    std::uint64_t watermark = 0;
    return snapshotSince(watermark, nullptr);
}

std::vector<SpanRecord>
SpanRecorder::snapshotSince(std::uint64_t &watermark,
                            std::uint64_t *lost) const
{
    std::lock_guard<std::mutex> lock(mu);
    if (watermark > total)
        watermark = 0;
    const std::uint64_t fresh = total - watermark;
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(fresh, count));
    if (lost != nullptr)
        *lost = fresh - take;
    watermark = total;
    std::vector<SpanRecord> out;
    out.reserve(take);
    const std::size_t first = (head + cap - take) % cap;
    for (std::size_t i = 0; i < take; ++i)
        out.push_back(ring[(first + i) % cap]);
    return out;
}

void
SpanRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    for (SpanRecord &r : ring)
        r = SpanRecord{};
    head = 0;
    count = 0;
    total = 0;
    droppedCount = 0;
}

std::vector<SpanRecorder::LivePath>
SpanRecorder::livePaths() const
{
    std::lock_guard<std::mutex> lock(threadsMu);
    std::vector<LivePath> out;
    out.reserve(threads.size());
    for (const ThreadSlot *slot : threads) {
        std::lock_guard<std::mutex> slotLock(slot->mu);
        LivePath p;
        p.threadIndex = slot->index;
        p.label = slot->label;
        for (const ThreadSlot::Frame &f : slot->frames) {
            if (!p.path.empty())
                p.path += '/';
            p.path += f.name;
        }
        if (!slot->frames.empty())
            p.openSeconds = slot->frames.back().startSeconds;
        out.push_back(std::move(p));
    }
    return out;
}

std::vector<std::pair<std::uint32_t, std::string>>
SpanRecorder::threadLabels() const
{
    std::lock_guard<std::mutex> lock(threadsMu);
    return labels;
}

void
SpanRecorder::setThreadLabel(const std::string &label)
{
    ThreadSlot &slot = threadSlot();
    SpanRecorder &g = global();
    std::lock_guard<std::mutex> lock(g.threadsMu);
    {
        std::lock_guard<std::mutex> slotLock(slot.mu);
        slot.label = label;
    }
    // labels[] is appended in registration order, so the slot index
    // doubles as its position.
    if (slot.index < g.labels.size())
        g.labels[slot.index].second = label;
}

std::uint64_t
SpanRecorder::currentSpanId()
{
    if constexpr (!kMetricsEnabled)
        return 0;
    ThreadSlot &slot = threadSlot();
    std::lock_guard<std::mutex> lock(slot.mu);
    return slot.frames.empty() ? 0 : slot.frames.back().id;
}

SpanRecorder::ThreadSlot &
SpanRecorder::threadSlot()
{
    thread_local ThreadSlot slot;
    if (slot.owner == nullptr) {
        SpanRecorder &g = global();
        std::lock_guard<std::mutex> lock(g.threadsMu);
        slot.owner = &g;
        slot.index = g.nextThreadIndex++;
        g.threads.push_back(&slot);
        g.labels.emplace_back(slot.index, std::string());
    }
    return slot;
}

SpanRecorder &
SpanRecorder::global()
{
    static SpanRecorder recorder;
    return recorder;
}

#if IRTHERM_METRICS_ENABLED

ScopedSpan::ScopedSpan(std::string name)
{
    SpanRecorder &g = SpanRecorder::global();
    if (!g.enabled())
        return;
    active = true;
    rec.name = std::move(name);
    static std::atomic<std::uint64_t> nextId{1};
    rec.id = nextId.fetch_add(1, std::memory_order_relaxed);
    SpanRecorder::ThreadSlot &slot = SpanRecorder::threadSlot();
    rec.threadIndex = slot.index;
    rec.startSeconds = monotonicSeconds();
    std::lock_guard<std::mutex> lock(slot.mu);
    rec.parentId = slot.frames.empty() ? 0 : slot.frames.back().id;
    rec.depth = static_cast<std::uint32_t>(slot.frames.size());
    slot.frames.push_back({rec.id, rec.name, rec.startSeconds});
}

ScopedSpan::~ScopedSpan()
{
    if (!active)
        return;
    rec.durationSeconds = monotonicSeconds() - rec.startSeconds;
    SpanRecorder::ThreadSlot &slot = SpanRecorder::threadSlot();
    {
        std::lock_guard<std::mutex> lock(slot.mu);
        // Pop down to and including our frame. Anything above it
        // belongs to spans destructed out of order (exception paths);
        // dropping those frames keeps the live path honest.
        while (!slot.frames.empty() &&
               slot.frames.back().id != rec.id)
            slot.frames.pop_back();
        if (!slot.frames.empty())
            slot.frames.pop_back();
    }
    SpanRecorder::global().record(std::move(rec));
}

#endif // IRTHERM_METRICS_ENABLED

} // namespace irtherm::obs
