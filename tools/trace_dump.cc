/**
 * @file
 * Inspect a captured poat-itrace instruction trace.
 *
 *   trace_dump [--head=N] FILE.itrace
 *
 * Prints the header (format version, functional fingerprint, event
 * count, sidecar profile size), a per-event-kind record census, and —
 * with --head=N — the first N records in a readable one-per-line form.
 * Dep operands print as canonical load sequence numbers, exactly as
 * they are stored in the file (0 = no dependence). A note prints its
 * operands in record order (an OpName its op and name). Exit status: 0
 * on success, 1 on an unreadable trace, 2 on bad usage (the
 * command-line contract of common/cli.h, README).
 */
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/cli.h"
#include "trace_io/itrace.h"

using namespace poat;

namespace {

/**
 * Counts records per kind and prints the first @p head of them. Returns
 * sequential tags from load-like events so the deps the replayer feeds
 * back in are the file's own canonical sequence numbers — what prints
 * is what is stored.
 */
class DumpSink : public TraceSink
{
  public:
    explicit DumpSink(uint64_t head) : head_(head) {}

    uint64_t counts[trace_io::kMaxEventKind + 1] = {};

    void
    alu(uint32_t count, uint64_t dep) override
    {
        row(trace_io::EventKind::Alu);
        if (printing())
            std::printf(" count=%" PRIu32 " dep=%" PRIu64 "\n", count,
                        dep);
    }

    void
    branch(bool taken, uint64_t pc, uint64_t dep) override
    {
        row(trace_io::EventKind::Branch);
        if (printing())
            std::printf(" taken=%d pc=0x%" PRIx64 " dep=%" PRIu64 "\n",
                        taken ? 1 : 0, pc, dep);
    }

    uint64_t
    load(uint64_t vaddr, uint64_t dep, uint64_t dep2) override
    {
        row(trace_io::EventKind::Load);
        const uint64_t seq = ++loads_;
        if (printing())
            std::printf(" vaddr=0x%" PRIx64 " dep=%" PRIu64
                        " dep2=%" PRIu64 " -> seq=%" PRIu64 "\n",
                        vaddr, dep, dep2, seq);
        return seq;
    }

    void
    store(uint64_t vaddr, uint64_t dep) override
    {
        row(trace_io::EventKind::Store);
        if (printing())
            std::printf(" vaddr=0x%" PRIx64 " dep=%" PRIu64 "\n", vaddr,
                        dep);
    }

    uint64_t
    nvLoad(ObjectID oid, uint64_t dep, uint64_t dep2) override
    {
        row(trace_io::EventKind::NvLoad);
        const uint64_t seq = ++loads_;
        if (printing())
            std::printf(" pool=%" PRIu32 " off=0x%" PRIx32
                        " dep=%" PRIu64 " dep2=%" PRIu64
                        " -> seq=%" PRIu64 "\n",
                        oid.poolId(), oid.offset(), dep, dep2, seq);
        return seq;
    }

    void
    nvStore(ObjectID oid, uint64_t dep) override
    {
        row(trace_io::EventKind::NvStore);
        if (printing())
            std::printf(" pool=%" PRIu32 " off=0x%" PRIx32
                        " dep=%" PRIu64 "\n",
                        oid.poolId(), oid.offset(), dep);
    }

    void
    clwb(uint64_t vaddr) override
    {
        row(trace_io::EventKind::Clwb);
        if (printing())
            std::printf(" vaddr=0x%" PRIx64 "\n", vaddr);
    }

    void
    nvClwb(ObjectID oid) override
    {
        row(trace_io::EventKind::NvClwb);
        if (printing())
            std::printf(" pool=%" PRIu32 " off=0x%" PRIx32 "\n",
                        oid.poolId(), oid.offset());
    }

    void
    fence() override
    {
        row(trace_io::EventKind::Fence);
        if (printing())
            std::printf("\n");
    }

    void
    poolMapped(uint32_t pool_id, uint64_t vbase, uint64_t size) override
    {
        row(trace_io::EventKind::PoolMapped);
        if (printing())
            std::printf(" pool=%" PRIu32 " vbase=0x%" PRIx64
                        " size=%" PRIu64 "\n",
                        pool_id, vbase, size);
    }

    void
    poolUnmapped(uint32_t pool_id) override
    {
        row(trace_io::EventKind::PoolUnmapped);
        if (printing())
            std::printf(" pool=%" PRIu32 "\n", pool_id);
    }

    void
    swTranslateBegin() override
    {
        row(trace_io::EventKind::SwTranslateBegin);
        if (printing())
            std::printf("\n");
    }

    void
    swTranslateEnd() override
    {
        row(trace_io::EventKind::SwTranslateEnd);
        if (printing())
            std::printf("\n");
    }

    void
    coreSwitch(uint32_t core) override
    {
        row(trace_io::EventKind::CoreSwitch);
        if (printing())
            std::printf(" core=%" PRIu32 "\n", core);
    }

    void
    note(const Note &n) override
    {
        const auto kind = static_cast<uint8_t>(n.kind);
        row(static_cast<trace_io::EventKind>(kind));
        if (!printing())
            return;
        if (n.kind == NoteKind::OpName) {
            std::printf(" op=%" PRIu64 " name=%.*s\n", n.arg[0],
                        static_cast<int>(n.name.size()), n.name.data());
            return;
        }
        for (uint8_t i = 0; i < trace_io::kOperandCount[kind]; ++i)
            std::printf(" %" PRIu64, n.arg[i]);
        std::printf("\n");
    }

  private:
    bool printing() const { return seen_ <= head_; }

    void
    row(trace_io::EventKind kind)
    {
        ++counts[static_cast<uint8_t>(kind)];
        ++seen_;
        if (printing())
            std::printf("  %8" PRIu64 "  %-12s", seen_,
                        trace_io::eventKindName(
                            static_cast<uint8_t>(kind)));
    }

    uint64_t head_;
    uint64_t seen_ = 0;
    uint64_t loads_ = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    uint64_t head = 0;
    std::string file;
    const cli::Parser parser(
        "trace_dump",
        {cli::number("--head", head, "also print the first N records")},
        {{"FILE.itrace", file}});
    parser.parse(argc, argv);

    try {
        const trace_io::TraceReplayer trace(file);
        std::printf("file:         %s\n", file.c_str());
        std::printf("format:       poat-itrace v%" PRIu32 "\n",
                    trace_io::kFormatVersion);
        std::printf("fingerprint:  %s\n", trace.fingerprint().c_str());
        std::printf("events:       %" PRIu64 "\n", trace.eventCount());
        std::printf("profile:      %zu bytes\n", trace.profile().size());

        DumpSink sink(head);
        if (head)
            std::printf("\nfirst %" PRIu64 " records:\n", head);
        trace.replayInto(sink);

        std::printf("\nrecords by kind:\n");
        for (uint8_t k = trace_io::kMinEventKind;
             k <= trace_io::kMaxEventKind; ++k)
            if (sink.counts[k])
                std::printf("  %-12s %12" PRIu64 "\n",
                            trace_io::eventKindName(k), sink.counts[k]);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "trace_dump: %s\n", e.what());
        return 1;
    }
}
