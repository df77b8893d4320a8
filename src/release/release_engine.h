// Release cells run the one Engine over a SlabStore (harness/cell.h).
// This alias keeps the older ReleaseEngine spelling compiling; new code
// names Engine.
#pragma once

#include "core/engine.h"

namespace memreal {

using ReleaseEngine = Engine;

}  // namespace memreal
