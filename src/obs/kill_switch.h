// The observability kill switch, read once for the whole layer.
//
// Compiling with REPFLOW_OBS_DISABLED (CMake option of the same name) sets
// obs::kEnabled to false.  The obs types keep their one definition in both
// builds; every recording call (a counter add, a histogram observation, a
// span, a flight event, a query-id draw) tests this constant first and
// returns before it touches an atomic or reads a clock, so the disabled
// build records nothing: query ids are 0, snapshots and flight dumps are
// empty, and there are no spans.  Handle lookups still register names.
//
// This is the only file under src/ that reads the macro (lint rule OBS01).
#pragma once

namespace repflow::obs {

#if defined(REPFLOW_OBS_DISABLED)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

}  // namespace repflow::obs
