// NG-ULTRA SoC model for the boot chain.
//
// Byte-accurate memory map (TCM / SRAM / DDR), device bring-up state (PLLs,
// DDR controller, flash controller, SpaceWire controller, caches, MPU) and
// the eFPGA configuration port. BL0/BL1 manipulate exactly this state, so
// the boot sequence of paper Fig. 5 is reproduced step by step, and skipping
// a mandatory init step is an observable failure (e.g. touching DDR before
// the controller is up).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/cow_memory.hpp"
#include "common/status.hpp"
#include "fault/injector.hpp"
#include "fault/scrub_memory.hpp"
#include "fdir/event.hpp"
#include "hv/types.hpp"
#include "nxmap/bitstream.hpp"

namespace hermes::boot {

struct MemoryMap {
  static constexpr std::uint64_t kTcmBase = 0x0000'0000;
  static constexpr std::uint64_t kTcmSize = 64 * 1024;
  static constexpr std::uint64_t kSramBase = 0x1000'0000;
  static constexpr std::uint64_t kSramSize = 1024 * 1024;
  static constexpr std::uint64_t kDdrBase = 0x8000'0000;
};

/// One MPU region descriptor (R52-style, region-based).
struct MpuRegion {
  std::uint64_t base = 0;
  std::uint64_t size = 0;
  bool writable = true;
};

/// Knobs of the eFPGA programming-path recovery ladder.
struct EfpgaProgConfig {
  /// Re-writes allowed per frame (and for the header) after a failed
  /// readback before programming escalates to kDeadlineExceeded (the
  /// bounded-retry budget is a deadline in disguise).
  unsigned rewrite_budget = 4;
  /// Idle cycles before re-write attempt n (doubles each attempt), mirroring
  /// the AXI retry backoff.
  std::uint64_t rewrite_backoff_cycles = 16;
  /// Cycles per configuration word written or read back.
  std::uint64_t cycles_per_word = 1;
};

/// Counters of the eFPGA programming path and configuration-memory scrub —
/// the observable record of every upset hit, caught, and repaired.
struct EfpgaStats {
  std::uint64_t frames_programmed = 0;
  std::uint64_t frame_crc_mismatches = 0;  ///< readback caught a bad/lost write
  std::uint64_t frame_rewrites = 0;        ///< bounded re-writes taken
  std::uint64_t header_rewrites = 0;
  std::uint64_t prog_failures = 0;         ///< re-write budget exhausted
  std::uint64_t scrub_passes = 0;
  std::uint64_t scrub_corrected = 0;       ///< EDAC single-bit corrections
  std::uint64_t scrub_uncorrectable = 0;   ///< double upsets detected
  std::uint64_t frames_reprogrammed = 0;   ///< uncorrectable -> frame re-write
  std::uint64_t scrub_silent = 0;          ///< must stay zero: silent rot
};

class Soc;

/// A frozen copy-on-write image of a Soc — device bring-up state, memory
/// contents and eFPGA configuration at the moment snapshot() was taken.
/// Cheap to hold (memory pages and config frames are shared, not copied) and
/// immutable: forks taken from it later see the same state no matter what
/// the original Soc did in between. Carries no injector attachment.
class SocSnapshot {
 public:
  SocSnapshot() = default;
  [[nodiscard]] bool valid() const { return state_ != nullptr; }

 private:
  friend class Soc;
  std::shared_ptr<const Soc> state_;
};

class Soc {
 public:
  explicit Soc(std::size_t ddr_bytes = 8 * 1024 * 1024)
      : tcm_(MemoryMap::kTcmSize, 0),
        sram_(MemoryMap::kSramSize, 0),
        ddr_(ddr_bytes, 0) {}

  // ---- device bring-up state (set by the boot stages) ----
  bool cpu0_initialized = false;   ///< registers, caches, exception vectors
  bool pll_locked = false;
  bool ddr_ready = false;
  bool flash_ready = false;
  bool spw_ready = false;
  bool tcm_enabled = false;
  std::vector<MpuRegion> mpu;
  bool mpu_enabled = false;
  unsigned cores_released = 1;     ///< CPU0 runs first; BL2/app releases the rest

  // ---- eFPGA configuration port ----
  bool efpga_programmed = false;
  std::uint32_t efpga_device_id = 0;
  unsigned efpga_frames = 0;
  EfpgaProgConfig efpga_cfg;

  // ---- cycle accounting ----
  std::uint64_t cycles = 0;
  void charge(std::uint64_t n) { cycles += n; }

  /// Registers the eFPGA programming-path injection points
  /// ("efpga.prog.header.corrupt", "efpga.prog.frame.corrupt",
  /// "efpga.prog.frame.drop" strike writes in flight; "efpga.config.rot"
  /// upsets the static configuration memory between scrub passes).
  void attach_injector(fault::FaultInjector* injector);

  /// Publishes the eFPGA programming/scrub ladder onto an FDIR bus: frame
  /// re-writes as kRetried, scrub corrections as kCorrected, detected-
  /// uncorrectable words as kUncorrectable, budget exhaustion and silent
  /// config rot as kExhausted — all stamped with the SoC cycle counter and
  /// carrying the frame index in `detail`. Like the injector, this wiring is
  /// per-instance and never captured by snapshot().
  void attach_fdir(fdir::FdirBus* bus) { fdir_ = bus; }

  // ---- memory access through the map ----
  /// Fails when the target region's controller is not initialized or the
  /// (enabled) MPU forbids the access.
  Status write_bytes(std::uint64_t addr, std::span<const std::uint8_t> data);
  Status read_bytes(std::uint64_t addr, std::span<std::uint8_t> out) const;

  /// Programs the eFPGA from a bitstream image. The image is integrity-
  /// checked up front (a corrupt image is rejected before any frame is
  /// written), then written frame by frame into the EDAC-protected
  /// configuration memory with a per-frame CRC readback after each write.
  /// A failed readback (in-flight corruption or a dropped write) triggers a
  /// bounded re-write with backoff; an exhausted budget escalates to
  /// kDeadlineExceeded and leaves any previously active configuration
  /// untouched.
  Status program_efpga(std::span<const std::uint8_t> bitstream);

  /// One scrub pass over the programmed configuration memory: every frame's
  /// words are read through EDAC, single-bit upsets are corrected in place,
  /// detected-uncorrectable words force a frame re-program from the retained
  /// golden configuration. Injector point "efpga.config.rot" gets one
  /// opportunity per frame to rot the raw storage first. Returns the
  /// corrected + reprogrammed word count of this pass.
  std::uint64_t scrub_efpga();

  [[nodiscard]] const EfpgaStats& efpga_stats() const { return efpga_stats_; }

  /// FNV-1a fingerprint (Fnv64::word per value) of the decoded configuration
  /// words, frame directory included — the chaos soak compares it against the staged bitstream to
  /// prove no corrupt frame was silently accepted.
  [[nodiscard]] std::uint64_t efpga_config_digest() const;

  [[nodiscard]] std::size_t ddr_size() const { return ddr_.size(); }

  // ---- copy-on-write state forking ----
  /// Freezes the complete SoC state. O(pages) pointer copies: memory pages
  /// and the eFPGA configuration are shared with the snapshot, then cloned
  /// lazily as either side writes. The snapshot never carries the injector
  /// attachment — injection wiring is per-instance, not state.
  [[nodiscard]] SocSnapshot snapshot() const;

  /// New Soc resuming from `snapshot` — a booted system replicated without
  /// re-running the boot chain. Forks are independent: writes in one fork
  /// (or in the original Soc) are never visible in another. The fork has no
  /// injector; call attach_injector to arm it. An invalid snapshot yields a
  /// freshly constructed Soc.
  [[nodiscard]] static Soc fork(const SocSnapshot& snapshot);

  /// Fork-and-arm in one step: loads `reseeded(plan, seed)` into `injector`
  /// and returns a fork with it attached — the replica idiom of every
  /// forked campaign (same scenario shape, fresh per-point RNG streams)
  /// without the three-line dance at each call site.
  [[nodiscard]] static Soc fork(const SocSnapshot& snapshot,
                                fault::FaultInjector& injector,
                                fault::FaultPlan plan, std::uint64_t seed);

  /// Pages of `fork` still physically shared with this Soc across all three
  /// memory regions — observability for tests and campaign diagnostics.
  [[nodiscard]] std::size_t pages_shared_with(const Soc& other) const {
    return tcm_.pages_shared_with(other.tcm_) +
           sram_.pages_shared_with(other.sram_) +
           ddr_.pages_shared_with(other.ddr_);
  }

 private:
  Status resolve(std::uint64_t addr, std::uint64_t bytes, bool write,
                 CowMemory const** region, std::uint64_t* offset) const;

  /// Clones the eFPGA configuration when a snapshot or fork still shares it
  /// (scrub passes mutate it in place).
  fault::ScrubMemory& mutable_efpga_config();

  /// Directory entry: where a frame's payload lives in config memory.
  struct EfpgaFrameDir {
    std::uint32_t column = 0;
    std::size_t offset = 0;  ///< first word index in the config memory
    std::size_t words = 0;
    std::uint32_t crc = 0;   ///< expected frame CRC from the image
  };

  CowMemory tcm_, sram_, ddr_;

  /// Shared with snapshots/forks until a scrub or re-program writes to it.
  std::shared_ptr<fault::ScrubMemory> efpga_config_;
  std::vector<EfpgaFrameDir> efpga_dir_;
  EfpgaStats efpga_stats_;
  fault::FaultInjector* injector_ = nullptr;
  fdir::FdirBus* fdir_ = nullptr;
  fault::PointId pt_header_corrupt_ = fault::kNoFaultPoint;
  fault::PointId pt_frame_corrupt_ = fault::kNoFaultPoint;
  fault::PointId pt_frame_drop_ = fault::kNoFaultPoint;
  fault::PointId pt_config_rot_ = fault::kNoFaultPoint;
};

}  // namespace hermes::boot
