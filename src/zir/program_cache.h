/**
 * @file
 * Compile once per program: a process-wide cache of optimized programs.
 *
 * The paper builds auto-LUT tables once, when the program is compiled
 * (§4).  A server that instantiates a fresh pipeline per session would
 * otherwise re-run the AST passes and recompute every table per
 * instance.  compilePipeline, compileThreadedPipeline and optimizeComp
 * therefore look their input up here first:
 *
 *  - the key is a canonical serialization of the input computation plus
 *    every CompilerOptions field the passes and tables depend on
 *    (programKey).  Variables are alpha-renamed by first occurrence, so
 *    two fresh builds of the same program by a factory match; native
 *    functions and native block specs are named by address, and the
 *    entry keeps them alive so an address cannot be reused while the
 *    key exists.  A hit needs the whole key to be equal, not a hash;
 *  - the entry holds the optimized AST (immutable from then on), the
 *    report statistics, and the LUT tables built from it so far;
 *  - per pipeline stay the ExprCompiler, frame, nodes, registers,
 *    channels, native kernel instances and backend artefacts
 *    (FuseProgram, dlopen'd code).
 *
 * A compile with a PassTracer bypasses the cache, since its passes must
 * really run.  Entries are dropped least recently used first, past
 * kProgramCacheTableBytes of tables or kProgramCacheEntries programs.
 */
#ifndef ZIRIA_ZIR_PROGRAM_CACHE_H
#define ZIRIA_ZIR_PROGRAM_CACHE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "zast/comp.h"
#include "zopt/autolut.h"
#include "zopt/passes.h"
#include "zvect/vectorize.h"

namespace ziria {

struct CompilerOptions;

/** What one compile of a program leaves for the next. */
struct CompiledProgram
{
    CompPtr ast;  ///< optimized and checked; never modified once cached
    VectStats vect;
    MapStats maps;
    CompType signature;
    /** Tables built from `ast` so far; fills in as pipelines are built. */
    mutable LutCache luts;
    /** Native functions and block specs the key names by address. */
    std::vector<std::shared_ptr<const void>> pins;
};

/**
 * Canonical key of @p program compiled under @p opt.  Native objects
 * named by address in it are appended to @p pins.
 */
std::string programKey(const CompPtr& program, const CompilerOptions& opt,
                       std::vector<std::shared_ptr<const void>>* pins);

/** Bytes of LUT tables the cache keeps before dropping programs. */
inline constexpr size_t kProgramCacheTableBytes = size_t{64} << 20;
/** Programs the cache keeps (an AST without tables still costs memory). */
inline constexpr size_t kProgramCacheEntries = 128;

/** The process-wide program cache.  Thread-safe. */
class ProgramCache
{
  public:
    static ProgramCache& global();

    /** The program cached under @p key (now most recently used), or
     *  null. */
    std::shared_ptr<const CompiledProgram> find(const std::string& key);

    /** Cache @p prog under @p key unless a concurrent compile got there
     *  first; returns the entry now cached. */
    std::shared_ptr<const CompiledProgram>
    insert(std::string key, std::shared_ptr<const CompiledProgram> prog);

    size_t size() const;

    /** Drop every entry (tests). */
    void clear();

  private:
    struct Slot
    {
        std::shared_ptr<const CompiledProgram> prog;
        uint64_t lastUse = 0;
    };

    /** Drop least recently used entries until within both bounds. */
    void trimLocked();

    mutable std::mutex mu_;
    std::unordered_map<std::string, Slot> slots_;
    uint64_t tick_ = 0;
};

} // namespace ziria

#endif // ZIRIA_ZIR_PROGRAM_CACHE_H
