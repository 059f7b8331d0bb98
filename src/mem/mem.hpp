// aurora::mem — umbrella header. See docs/MEMORY.md for the design.
#pragma once

#include "mem/arena.hpp"     // IWYU pragma: export
#include "mem/reg_cache.hpp" // IWYU pragma: export
#include "mem/registry.hpp"  // IWYU pragma: export
#include "mem/sg.hpp"        // IWYU pragma: export
