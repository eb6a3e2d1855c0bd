// archlint fixture: a stats block bound on the traffic path (fires)
// versus in the constructor (does not fire).
#include "obs/obs.hpp"

namespace fixture {

struct MeterStats {
  std::uint64_t packets = 0;
};

class Meter {
 public:
  explicit Meter(obs::Scope scope) : scope_(scope) {
    early_ = &scope_.bind<MeterStats>(
        {{"fixture.early", &MeterStats::packets}});
  }

  void on_first_packet() {
    // VIOLATION (late-registration): slot existence now depends on
    // whether traffic arrived, so snapshots diverge run-to-run.
    late_ = &scope_.bind<MeterStats>({{"fixture.late", &MeterStats::packets}});
  }

 private:
  obs::Scope scope_;
  MeterStats* early_ = nullptr;
  MeterStats* late_ = nullptr;
};

}  // namespace fixture
