// apai.hpp - the Automatic Process Acquisition Interface (MPIR).
//
// The de facto debugger interface the paper builds on (§2): the RM launcher
// exports MPIR_proctable / MPIR_proctable_size symbols and stops at
// MPIR_Breakpoint once the parallel job is up. A tool traces the launcher,
// waits for that stop, and reads the proctable out of its address space.
// Here the proctable is a real serialized byte blob in the launcher's
// SymbolSpace, so tracer reads pay a cost linear in job size - the origin of
// the paper's Region B term.
#pragma once

#include <string>
#include <vector>

#include "cluster/process.hpp"
#include "common/bytes.hpp"
#include "rm/types.hpp"

namespace lmon::rm::apai {

// Canonical MPIR symbol names.
inline constexpr const char* kProctable = "MPIR_proctable";
inline constexpr const char* kProctableSize = "MPIR_proctable_size";
inline constexpr const char* kBeingDebugged = "MPIR_being_debugged";
inline constexpr const char* kDebugState = "MPIR_debug_state";
inline constexpr const char* kBreakpoint = "MPIR_Breakpoint";
/// Real srun exports the job id under this name for tools (TotalView legacy).
inline constexpr const char* kJobId = "totalview_jobid";

// MPIR_debug_state values (subset of the MPIR spec).
inline constexpr std::uint32_t kDebugSpawned = 1;
inline constexpr std::uint32_t kDebugAborting = 2;

/// Serializes a proctable: entry count + MPIR_PROCDESC-like records. A tool
/// parses the blob with core::Rpdtab::from_proctable_blob().
Bytes encode_proctable(const std::vector<TaskDesc>& entries);

/// Publishes the proctable into a launcher process's symbol space, exactly
/// as real srun populates MPIR_proctable before calling MPIR_Breakpoint.
void publish(cluster::Process& launcher, const std::vector<TaskDesc>& entries);

/// Sets MPIR_debug_state in the launcher.
void set_debug_state(cluster::Process& launcher, std::uint32_t state);

}  // namespace lmon::rm::apai
