/**
 * @file
 * Analyzer-side basic block discovery.
 *
 * The paper's analyzer does not get the compiler's CFG; it disassembles
 * the binary (with XED) and builds a basic block map from leaders:
 * function entries, branch targets, and instructions following control
 * transfers. BlockMap reproduces that pipeline on a Program's encoded
 * text images.
 *
 * Crucially, for kernel modules the map can be built either from the
 * static on-disk image (tracepoint JMPs present — the default, which is
 * wrong for live execution) or from the live image (the paper's fix of
 * patching the static binary with the .text of the running kernel).
 */

#ifndef HBBP_PROGRAM_BLOCKMAP_HH
#define HBBP_PROGRAM_BLOCKMAP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "program/program.hh"
#include "support/addr_table.hh"

namespace hbbp {

/** A basic block as discovered by disassembly. */
struct MapBlock
{
    uint32_t index = 0;      ///< Index within the BlockMap.
    uint64_t start = 0;      ///< First instruction address.
    uint32_t bytes = 0;      ///< Size in bytes.
    ModuleId module = 0;     ///< Enclosing module.
    FuncId func = kNoFunc;   ///< Enclosing function (via symbols).
    std::vector<Instruction> instrs;

    /** Address one past the end. */
    uint64_t end() const { return start + bytes; }

    /** True when @p addr is inside the block. */
    bool contains(uint64_t addr) const
    {
        return addr >= start && addr < end();
    }

    /** Instruction count. */
    size_t size() const { return instrs.size(); }

    /** True when any instruction is long-latency. */
    bool hasLongLatency() const;
};

/** Options controlling block map construction. */
struct BlockMapOptions
{
    /**
     * Replace kernel static text with the live image before
     * disassembling (the paper's self-modifying-code fix). User modules
     * are unaffected (their images are identical).
     */
    bool patch_kernel_text = false;
};

/** The analyzer's address-indexed basic block map. */
class BlockMap
{
  public:
    /** Disassemble @p prog's modules and discover blocks. */
    BlockMap(const Program &prog, const BlockMapOptions &opts = {});

    /** All discovered blocks, sorted by start address. */
    const std::vector<MapBlock> &blocks() const { return blocks_; }

    /** Block by index; panics when out of range. */
    const MapBlock &block(uint32_t index) const;

    /** Index of the block containing @p addr, or npos. */
    uint32_t blockAt(uint64_t addr) const;

    /** Index of the block starting exactly at @p addr, or npos. O(1). */
    uint32_t
    blockStartingAt(uint64_t addr) const
    {
        const AddrBlocks *hit = by_addr_.find(addr);
        return hit ? hit->starting : npos;
    }

    /**
     * Index of the block whose last instruction is the control
     * transfer at @p addr, or npos. O(1).
     */
    uint32_t
    blockBranchingAt(uint64_t addr) const
    {
        const AddrBlocks *hit = by_addr_.find(addr);
        return hit ? hit->branching : npos;
    }

    /**
     * True when execution can run from block @p first straight through
     * to block @p last (first <= last) without a taken transfer: no
     * block in [first, last) ends in an always-taken control transfer
     * or is followed by a gap. O(1).
     */
    bool
    fallsThrough(uint32_t first, uint32_t last) const
    {
        return breaks_before_[last] == breaks_before_[first];
    }

    /** Sentinel returned by blockAt for unmapped addresses. */
    static constexpr uint32_t npos = UINT32_MAX;

    /** Name of the function owning @p block (or "?"). */
    std::string functionName(const MapBlock &block) const;

    /** Name of the module owning @p block. */
    std::string moduleName(const MapBlock &block) const;

    /** The program this map was built from. */
    const Program &program() const { return prog_; }

  private:
    /** The blocks an address starts and ends in a control transfer. */
    struct AddrBlocks
    {
        uint32_t starting = npos;
        uint32_t branching = npos;
    };

    void discoverModule(const Module &mod, const BlockMapOptions &opts);
    void buildIndex();

    const Program &prog_;
    std::vector<MapBlock> blocks_;
    /** blocks_[i].start, flat: blockAt searches this, not the blocks. */
    std::vector<uint64_t> starts_;
    /** Block start and control-transfer addresses to block indices. */
    AddrTable<AddrBlocks> by_addr_;
    /** breaks_before_[i]: blocks k < i that cannot fall into k + 1. */
    std::vector<uint32_t> breaks_before_;
};

} // namespace hbbp

#endif // HBBP_PROGRAM_BLOCKMAP_HH
