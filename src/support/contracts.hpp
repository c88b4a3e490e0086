#pragma once
// Debug contracts — the load-bearing preconditions, as checks instead of
// prose.
//
// Three macros, all compiled out in Release (NDEBUG) builds so the hot path
// pays nothing, all aborting with file:line (and the failed expression) in
// Debug builds so a violated invariant dies at the seam that broke it
// instead of corrupting state three subsystems later:
//
//   PPN_ASSERT(cond)           cheap O(1) precondition (bounds, non-null,
//                              size agreement). Use freely, including on
//                              hot paths — it costs one compare in Debug.
//   PPN_CHECK_MSG(cond, msg)   like PPN_ASSERT with a context message; the
//                              message expression is evaluated ONLY on
//                              failure, so `str_format(...)` arguments are
//                              free on the success path.
//   PPN_DCHECK(cond)           potentially expensive validation (linear
//                              scans, structural audits). Same tier today;
//                              kept distinct so a future knob can disable
//                              deep checks while keeping the cheap ones.
//
// Contracts guard OUR invariants (caller/internal programming errors);
// conditions a correct caller can legitimately trigger (bad user input,
// oversized deltas) keep throwing std::invalid_argument — a service must
// survive those, and does. The architecture rules that span subsystems
// (workspace ownership, cache hygiene, pool discipline) are enforced
// separately by tools/check_invariants.py; these macros cover the per-call
// preconditions a linter cannot see.
//
// tests/contracts_test.cpp pins both tiers: Debug builds abort (death
// tests), Release builds compile the checks out entirely (the test
// self-skips its death half).

#include <string>

namespace ppnpart::support {

/// Failure sink: prints "file:line: contract violated: expr (msg)" to
/// stderr and aborts. Out-of-line so the macro expansion stays one compare
/// and one never-taken call.
[[noreturn]] void contract_violated(const char* file, int line,
                                    const char* expr, const char* msg);
[[noreturn]] void contract_violated(const char* file, int line,
                                    const char* expr, const std::string& msg);

}  // namespace ppnpart::support

#if !defined(NDEBUG)
#define PPN_CONTRACTS_ENABLED 1

#define PPN_ASSERT(cond)                                                  \
  do {                                                                    \
    if (!(cond))                                                          \
      ::ppnpart::support::contract_violated(__FILE__, __LINE__, #cond,    \
                                            static_cast<const char*>(nullptr)); \
  } while (false)

#define PPN_CHECK_MSG(cond, msg)                                          \
  do {                                                                    \
    if (!(cond))                                                          \
      ::ppnpart::support::contract_violated(__FILE__, __LINE__, #cond,    \
                                            (msg));                       \
  } while (false)

#define PPN_DCHECK(cond) PPN_ASSERT(cond)

#else  // NDEBUG: compiled out. sizeof keeps the condition's names "used"
       // (no -Wunused warnings for Debug-only locals) without evaluating
       // anything at runtime.
#define PPN_CONTRACTS_ENABLED 0

#define PPN_ASSERT(cond) ((void)sizeof(!(cond)))
#define PPN_CHECK_MSG(cond, msg) ((void)sizeof(!(cond)))
#define PPN_DCHECK(cond) ((void)sizeof(!(cond)))

#endif  // NDEBUG
