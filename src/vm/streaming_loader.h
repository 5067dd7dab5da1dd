/**
 * @file
 * The non-strict streaming class loader (paper §3 and §3.1).
 *
 * A strict JVM needs the whole class file before it can do anything.
 * This loader consumes the serialized byte stream *as it arrives*:
 *  - once the global data is complete it parses it and runs
 *    verification steps 1–2 (class-file structure and global data);
 *  - each time a method's delimiter arrives the method is parsed,
 *    decoded, and structurally checked (step 3's local checks), and
 *    becomes available for execution;
 *  - dataflow and cross-class checks (the rest of step 3 and step 4)
 *    remain with the Verifier/Linker at first execution, as in the
 *    paper's incremental model.
 *
 * The transfer simulator works from byte layouts; this loader is the
 * functional counterpart proving the byte stream really is
 * incrementally consumable at exactly the offsets the layouts use —
 * the tests cross-check the two.
 */

#ifndef NSE_VM_STREAMING_LOADER_H
#define NSE_VM_STREAMING_LOADER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "classfile/classfile.h"

namespace nse
{

/** Loader lifecycle. */
enum class LoadPhase : uint8_t
{
    AwaitingGlobalData, ///< header/pool/fields/attrs still in flight
    LoadingMethods,     ///< global data verified; methods arriving
    Complete,           ///< every declared method has arrived
};

/** Incremental, non-strict loader for one serialized class file. */
class StreamingLoader
{
  public:
    StreamingLoader() = default;

    /**
     * Append newly arrived bytes; parses as far as the stream allows.
     * Returns the number of methods that became available during this
     * call. fatal()s on malformed streams (bad magic, bad delimiter,
     * structural verification failure).
     */
    size_t feed(const uint8_t *data, size_t n);
    size_t feed(const std::vector<uint8_t> &bytes);

    LoadPhase phase() const { return phase_; }

    /** True once verification steps 1-2 have run. */
    bool globalDataVerified() const
    {
        return phase_ != LoadPhase::AwaitingGlobalData;
    }

    /** Methods fully arrived (delimiter seen), decoded and checked. */
    size_t methodsReady() const { return loaded_.methods.size(); }

    /** Total methods the class declares; 0 before the global data. */
    size_t methodsDeclared() const { return methodCount_; }

    bool complete() const { return phase_ == LoadPhase::Complete; }

    /** Stream offset at which the global data completed (0 before). */
    size_t globalDataEnd() const { return globalDataEnd_; }

    /** Stream offset at which method i's delimiter arrived. */
    size_t methodEndOffset(size_t i) const;

    /**
     * The partially (or fully) loaded class: global data plus every
     * method that has arrived so far. Invalid to call before the
     * global data is verified.
     */
    const ClassFile &classFile() const;

  private:
    void tryParseGlobalData();
    size_t tryParseMethods();

    std::vector<uint8_t> buffer_;
    LoadPhase phase_ = LoadPhase::AwaitingGlobalData;
    ClassFile loaded_;
    uint16_t methodCount_ = 0;
    size_t globalDataEnd_ = 0;
    size_t parsePos_ = 0;
    std::vector<size_t> methodEnds_;
};

} // namespace nse

#endif // NSE_VM_STREAMING_LOADER_H
