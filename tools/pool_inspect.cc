/**
 * @file
 * Offline pool-image inspector.
 *
 * Reads a pool image exported with PoolRegistry::exportPool (the
 * on-media format itself) and prints its header, walks the allocator's
 * block chain (validating the same invariants the recovery scan
 * checks), and decodes the undo-log state of every log slot — the
 * debugging view an operator wants when a persistent heap misbehaves.
 *
 *   pool_inspect [--blocks] IMAGE
 *
 * Exit status: 0 on success, 1 on an unreadable, malformed or
 * media-faulted image, 2 on bad usage (the command-line contract of
 * common/cli.h, README).
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli.h"
#include "pmem/alloc.h"
#include "pmem/pool.h"
#include "pmem/tx.h"

using namespace poat;

namespace {

std::vector<uint8_t>
readFile(const char *path)
{
    std::FILE *f = std::fopen(path, "rb");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", path);
        std::exit(1);
    }
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<uint8_t> data(static_cast<size_t>(std::max(size, 0L)));
    if (!data.empty() &&
        std::fread(data.data(), 1, data.size(), f) != data.size()) {
        std::fprintf(stderr, "short read from %s\n", path);
        std::exit(1);
    }
    std::fclose(f);
    return data;
}

const char *
logStateName(uint32_t state)
{
    switch (state) {
      case LogHeader::kIdle:
        return "idle";
      case LogHeader::kActive:
        return "ACTIVE (undo pending on recovery)";
      case LogHeader::kCommitting:
        return "COMMITTING (deferred frees pending)";
      default:
        return "CORRUPT";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool show_blocks = false;
    std::string path;
    const cli::Parser parser(
        "pool_inspect",
        {cli::toggle("--blocks", show_blocks,
                     "also walk and print the heap's block chain")},
        {{"IMAGE", path}});
    parser.parse(argc, argv);

    std::vector<uint8_t> image = readFile(path.c_str());
    if (image.size() < sizeof(PoolHeader)) {
        std::fprintf(stderr, "file too small to be a pool image\n");
        return 1;
    }
    PoolHeader h{};
    std::memcpy(&h, image.data(), sizeof(h));
    if (h.magic != PoolHeader::kMagic) {
        std::fprintf(stderr, "bad magic: not a poat pool image\n");
        return 1;
    }

    std::printf("pool image: %s (%zu bytes)\n", path.c_str(),
                image.size());
    std::printf("  version    %u\n", h.version);
    std::printf("  superblock %s\n",
                h.crcValid() ? "crc ok" : "CRC MISMATCH");
    if (image.size() >= PoolHeader::kMirrorOff + sizeof(PoolHeader)) {
        PoolHeader mirror{};
        std::memcpy(&mirror, image.data() + PoolHeader::kMirrorOff,
                    sizeof(mirror));
        std::printf("  mirror     %s%s\n",
                    mirror.valid(image.size()) ? "crc ok" : "CRC MISMATCH",
                    std::memcmp(&mirror, &h, sizeof(h)) == 0
                        ? ""
                        : " (differs from primary)");
    }
    std::printf("  pool id    %u (at creation)\n", h.pool_id);
    std::printf("  size       %lu\n",
                static_cast<unsigned long>(h.pool_size));
    std::printf("  root       off=%u size=%u%s\n", h.root_off,
                h.root_size, h.root_off == 0 ? " (unset)" : "");
    std::printf("  heap       [%u, %u) = %u bytes\n", h.heap_off,
                h.heap_off + h.heap_size, h.heap_size);
    std::printf("  undo log   [%u, %u) = %u bytes\n", h.log_off,
                h.log_off + h.log_size, h.log_size);

    // Attach the real allocator (its constructor runs the self-healing
    // scan) over a reopened Pool: this *is* the recovery path. A
    // MediaError here is itself the answer an operator wants.
    try {
    Pool pool("inspect", h.pool_id ? h.pool_id : 1, PoolImage(image));
    PoolAllocator alloc(pool);
    std::printf("heap scan: %s\n",
                alloc.validate() ? "consistent" : "CORRUPT");
    std::printf("  used       %lu bytes\n",
                static_cast<unsigned long>(alloc.usedBytes()));
    std::printf("  free       %lu bytes in %zu blocks\n",
                static_cast<unsigned long>(alloc.freeBytes()),
                alloc.freeBlockCount());

    if (show_blocks) {
        uint32_t off = h.heap_off;
        while (off < h.heap_off + h.heap_size) {
            BlockHeader bh{};
            pool.readRaw(off, &bh, sizeof(bh));
            if (!bh.crcValid()) {
                std::printf("  block @%-8u CRC MISMATCH\n", off);
                break;
            }
            std::printf("  block @%-8u %8u bytes  %s\n", off, bh.size,
                        bh.allocated() ? "allocated" : "free");
            off += bh.size;
        }
    }

    // One section per undo-log slot, in slot order. A multi-slot pool
    // (one slot per engine worker) can hold an open transaction in any
    // slot; a single-slot pool prints the classic "undo log" section.
    const uint32_t slots = UndoLog::slotCount(pool.header());
    for (uint32_t slot = 0; slot < slots; ++slot) {
        UndoLog log(pool, alloc, slot);
        LogHeader lh{};
        pool.readRaw(log.headerOff(), &lh, sizeof(lh));
        const std::string name = slots == 1
            ? "undo log"
            : "undo log slot " + std::to_string(slot);
        std::printf("%s: %s%s\n", name.c_str(), logStateName(lh.state),
                    lh.crcValid() ? "" : " [header CRC MISMATCH]");
        std::printf("  entries    %u (%u bytes used)\n", lh.num_entries,
                    lh.used);
        for (const auto &rec : log.records()) {
            const char *kind = rec.type == LogEntryHeader::kData ? "data"
                : rec.type == LogEntryHeader::kAlloc             ? "alloc"
                                                                 : "free";
            std::printf("    %-5s target=%u size=%u\n", kind,
                        rec.target_off, rec.size);
        }
    }
    } catch (const MediaError &e) {
        std::printf("MEDIA FAULT: %s\n", e.what());
        return 1;
    }
    return 0;
}
