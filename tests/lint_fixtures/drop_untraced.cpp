// archlint fixture: a drop counter bumped without a paired trace emit
// (fires), next to a properly traced bump (does not fire).
#include "obs/obs.hpp"

namespace fixture {

struct PlaneStats {
  std::uint64_t no_entry_drops = 0;
};

class Plane {
 public:
  void on_bad_packet() {
    // VIOLATION (drop-untraced): metric moves, replay sees nothing.
    ++stats_->no_entry_drops;
  }

  void on_bad_packet_traced(long now) {
    stats_->no_entry_drops += 1;
    scope_.emit(now, obs::TraceType::kPacketDropped, 0, 0);
  }

 private:
  obs::Scope scope_;
  PlaneStats* stats_ = nullptr;
};

}  // namespace fixture
