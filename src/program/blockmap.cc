#include "program/blockmap.hh"

#include <algorithm>
#include <set>

#include "isa/encoding.hh"
#include "support/logging.hh"

namespace hbbp {

bool
MapBlock::hasLongLatency() const
{
    for (const auto &instr : instrs)
        if (instr.info().isLongLatency())
            return true;
    return false;
}

BlockMap::BlockMap(const Program &prog, const BlockMapOptions &opts)
    : prog_(prog)
{
    for (const Module &mod : prog.modules())
        discoverModule(mod, opts);
    std::sort(blocks_.begin(), blocks_.end(),
              [](const MapBlock &a, const MapBlock &b) {
                  return a.start < b.start;
              });
    for (uint32_t i = 0; i < blocks_.size(); i++)
        blocks_[i].index = i;
    buildIndex();
}

void
BlockMap::buildIndex()
{
    const uint32_t n = static_cast<uint32_t>(blocks_.size());
    starts_.resize(n);
    for (uint32_t i = 0; i < n; i++)
        starts_[i] = blocks_[i].start;

    by_addr_ = AddrTable<AddrBlocks>(2 * static_cast<size_t>(n));
    breaks_before_.assign(n + 1, 0);
    for (uint32_t i = 0; i < n; i++) {
        const MapBlock &blk = blocks_[i];
        by_addr_[blk.start].starting = i;
        const MnemonicInfo &last = blk.instrs.back().info();
        if (last.isControl())
            by_addr_[blk.instrs.back().addr].branching = i;
        // Falling off the end is impossible past an always-taken
        // transfer, and reaches block i + 1 only if it starts at end().
        bool falls = !(last.isControl() && last.isAlwaysTaken()) &&
                     i + 1 < n && starts_[i + 1] == blk.end();
        breaks_before_[i + 1] = breaks_before_[i] + (falls ? 0 : 1);
    }
}

void
BlockMap::discoverModule(const Module &mod, const BlockMapOptions &opts)
{
    const std::vector<uint8_t> &text =
        (mod.isKernel() && opts.patch_kernel_text) ? mod.live_text
                                                   : mod.static_text;

    // Pass 1: linear decode.
    std::vector<Instruction> instrs = decodeAll(text, mod.base);
    if (instrs.empty())
        return;

    // Pass 2: collect leaders.
    std::set<uint64_t> leaders;
    leaders.insert(mod.base);
    for (FuncId fid : mod.functions)
        leaders.insert(prog_.function(fid).start);
    for (const Instruction &instr : instrs) {
        if (!instr.info().isControl())
            continue;
        // The instruction after any control transfer starts a block.
        leaders.insert(instr.nextAddr());
        // Direct targets start blocks.
        if (instr.info().hasDisplacement())
            leaders.insert(instr.target());
    }

    // Pass 3: partition instructions into [leader, next leader) blocks.
    uint64_t text_end = mod.base + text.size();
    MapBlock cur;
    bool open = false;
    auto close_block = [&](uint64_t end_addr) {
        if (!open || cur.instrs.empty())
            return;
        cur.bytes = static_cast<uint32_t>(end_addr - cur.start);
        blocks_.push_back(std::move(cur));
        cur = MapBlock{};
        open = false;
    };
    for (const Instruction &instr : instrs) {
        bool is_leader = leaders.count(instr.addr) > 0;
        if (is_leader)
            close_block(instr.addr);
        if (!open) {
            cur.start = instr.addr;
            cur.module = mod.id;
            cur.func = prog_.functionAt(instr.addr);
            open = true;
        }
        cur.instrs.push_back(instr);
        if (instr.info().isControl())
            close_block(instr.nextAddr());
    }
    close_block(text_end);
}

const MapBlock &
BlockMap::block(uint32_t index) const
{
    if (index >= blocks_.size())
        panic("BlockMap::block: index %u out of range", index);
    return blocks_[index];
}

uint32_t
BlockMap::blockAt(uint64_t addr) const
{
    auto it = std::upper_bound(starts_.begin(), starts_.end(), addr);
    if (it == starts_.begin())
        return npos;
    const MapBlock &candidate = blocks_[it - starts_.begin() - 1];
    if (!candidate.contains(addr))
        return npos;
    return candidate.index;
}

std::string
BlockMap::functionName(const MapBlock &block) const
{
    if (block.func == kNoFunc)
        return "?";
    return prog_.function(block.func).name;
}

std::string
BlockMap::moduleName(const MapBlock &block) const
{
    return prog_.module(block.module).name;
}

} // namespace hbbp
