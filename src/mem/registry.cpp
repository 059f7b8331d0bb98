#include "mem/registry.hpp"

#include <algorithm>

namespace aurora::mem {

namespace {

template <typename T>
void erase_ptr(std::vector<T*>& v, T* p) {
    v.erase(std::remove(v.begin(), v.end(), p), v.end());
}

} // namespace

mem_registry& mem_registry::global() {
    static mem_registry r;
    return r;
}

void mem_registry::add(arena* a) {
    if (a->label().empty()) {
        return;
    }
    std::lock_guard<std::mutex> lk(mu_);
    arenas_.push_back(a);
}

void mem_registry::remove(arena* a) {
    std::lock_guard<std::mutex> lk(mu_);
    erase_ptr(arenas_, a);
}

void mem_registry::add(reg_cache* c) {
    if (c->label().empty()) {
        return;
    }
    std::lock_guard<std::mutex> lk(mu_);
    caches_.push_back(c);
}

void mem_registry::remove(reg_cache* c) {
    std::lock_guard<std::mutex> lk(mu_);
    erase_ptr(caches_, c);
}

mem_registry::snapshot mem_registry::snap() const {
    std::lock_guard<std::mutex> lk(mu_);
    snapshot s;
    for (arena* a : arenas_) {
        s.arenas.push_back({a->label(), a->stats()});
    }
    for (reg_cache* c : caches_) {
        s.caches.push_back({c->label(), c->stats()});
    }
    return s;
}

} // namespace aurora::mem
