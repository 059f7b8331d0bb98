// aurora::mem — process-wide registry of live arenas and registration
// caches, so tools (aurora_info --mem) can dump a coherent memory
// picture without threading references through every layer. Objects with a
// non-empty label self-register on construction and deregister on
// destruction; snapshots copy stats under the registry lock.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "mem/arena.hpp"
#include "mem/reg_cache.hpp"

namespace aurora::mem {

class mem_registry {
public:
    struct snapshot {
        struct arena_entry {
            std::string label;
            arena_stats stats;
        };
        struct cache_entry {
            std::string label;
            reg_cache_stats stats;
        };
        std::vector<arena_entry> arenas;
        std::vector<cache_entry> caches;
    };

    [[nodiscard]] static mem_registry& global();

    void add(arena* a);
    void remove(arena* a);
    void add(reg_cache* c);
    void remove(reg_cache* c);

    [[nodiscard]] snapshot snap() const;

private:
    mutable std::mutex mu_;
    std::vector<arena*> arenas_;
    std::vector<reg_cache*> caches_;
};

} // namespace aurora::mem
