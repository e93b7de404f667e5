#include "serve/slab.h"

namespace mmw::serve {

SessionPool::SessionPool(index_t slab_capacity)
    : slab_capacity_(slab_capacity) {
  MMW_REQUIRE_MSG(slab_capacity > 0, "slab capacity must be positive");
}

std::size_t SessionPool::resident_bytes() const {
  return slabs_.size() * slab_capacity_ *
             (sizeof(UserSession) + sizeof(std::uint8_t)) +
         slabs_.capacity() * sizeof(Slab) +
         free_.capacity() * sizeof(index_t);
}

void SessionPool::update_high_water() {
  const std::size_t bytes = resident_bytes();
  if (bytes > high_water_) high_water_ = bytes;
}

index_t SessionPool::allocate() {
  if (free_.empty()) {
    Slab slab;
    slab.cells.reset(static_cast<UserSession*>(
        ::operator new(slab_capacity_ * sizeof(UserSession))));
    slab.live = std::make_unique<std::uint8_t[]>(slab_capacity_);
    const index_t base = slabs_.size() * slab_capacity_;
    slabs_.push_back(std::move(slab));
    // Descending push so LIFO pops hand out ascending offsets.
    free_.reserve(free_.size() + slab_capacity_);
    for (index_t i = slab_capacity_; i > 0; --i)
      free_.push_back(base + i - 1);
    update_high_water();
  }
  const index_t slot = free_.back();
  free_.pop_back();
  Slab& s = slabs_[slot / slab_capacity_];
  ::new (&s.cells[slot % slab_capacity_]) UserSession{};
  s.live[slot % slab_capacity_] = 1;
  ++s.live_count;
  ++live_count_;
  return slot;
}

void SessionPool::release(index_t slot) {
  MMW_REQUIRE_MSG(slot < capacity() && live(slot),
                  "releasing a slot that is not live");
  Slab& s = slabs_[slot / slab_capacity_];
  s.live[slot % slab_capacity_] = 0;
  --s.live_count;
  --live_count_;
  free_.push_back(slot);
  update_high_water();  // free_ may have grown past its reservation
}

}  // namespace mmw::serve
