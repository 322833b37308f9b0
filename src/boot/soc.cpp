#include "boot/soc.hpp"

#include <cstring>

#include "common/backoff.hpp"
#include "common/hash.hpp"
#include "common/strings.hpp"

namespace hermes::boot {

Status Soc::resolve(std::uint64_t addr, std::uint64_t bytes, bool write,
                    CowMemory const** region, std::uint64_t* offset) const {
  const auto in = [&](std::uint64_t base, std::uint64_t size) {
    return addr >= base && addr + bytes <= base + size;
  };
  if (in(MemoryMap::kTcmBase, MemoryMap::kTcmSize)) {
    if (!tcm_enabled) {
      return Status::Error(ErrorCode::kInvalidArgument,
                           "TCM access before TCM initialization");
    }
    *region = &tcm_;
    *offset = addr - MemoryMap::kTcmBase;
  } else if (in(MemoryMap::kSramBase, MemoryMap::kSramSize)) {
    *region = &sram_;
    *offset = addr - MemoryMap::kSramBase;
  } else if (addr >= MemoryMap::kDdrBase &&
             addr + bytes <= MemoryMap::kDdrBase + ddr_.size()) {
    if (!ddr_ready) {
      return Status::Error(ErrorCode::kInvalidArgument,
                           "DDR access before controller initialization");
    }
    *region = &ddr_;
    *offset = addr - MemoryMap::kDdrBase;
  } else {
    return Status::Error(ErrorCode::kInvalidArgument,
                         format("access to unmapped address 0x%llx",
                                static_cast<unsigned long long>(addr)));
  }

  if (mpu_enabled) {
    bool allowed = false;
    for (const MpuRegion& mpu_region : mpu) {
      if (addr >= mpu_region.base &&
          addr + bytes <= mpu_region.base + mpu_region.size) {
        if (!write || mpu_region.writable) allowed = true;
        break;
      }
    }
    if (!allowed) {
      return Status::Error(ErrorCode::kIsolationFault,
                           format("MPU forbids %s at 0x%llx",
                                  write ? "write" : "read",
                                  static_cast<unsigned long long>(addr)));
    }
  }
  return Status::Ok();
}

Status Soc::write_bytes(std::uint64_t addr, std::span<const std::uint8_t> data) {
  CowMemory const* region = nullptr;
  std::uint64_t offset = 0;
  Status status = resolve(addr, data.size(), /*write=*/true, &region, &offset);
  if (!status.ok()) return status;
  const_cast<CowMemory*>(region)->write(offset, data);
  return Status::Ok();
}

Status Soc::read_bytes(std::uint64_t addr, std::span<std::uint8_t> out) const {
  CowMemory const* region = nullptr;
  std::uint64_t offset = 0;
  Status status = resolve(addr, out.size(), /*write=*/false, &region, &offset);
  if (!status.ok()) return status;
  region->read(offset, out);
  return Status::Ok();
}

SocSnapshot Soc::snapshot() const {
  auto frozen = std::make_shared<Soc>(*this);
  // Injection and FDIR wiring are per-instance: the frozen image must not
  // dangle into an injector or event bus the snapshot outlives.
  frozen->injector_ = nullptr;
  frozen->fdir_ = nullptr;
  frozen->pt_header_corrupt_ = fault::kNoFaultPoint;
  frozen->pt_frame_corrupt_ = fault::kNoFaultPoint;
  frozen->pt_frame_drop_ = fault::kNoFaultPoint;
  frozen->pt_config_rot_ = fault::kNoFaultPoint;
  SocSnapshot snapshot;
  snapshot.state_ = std::move(frozen);
  return snapshot;
}

Soc Soc::fork(const SocSnapshot& snapshot) {
  if (!snapshot.valid()) return Soc();
  return *snapshot.state_;  // page tables copied, pages shared
}

Soc Soc::fork(const SocSnapshot& snapshot, fault::FaultInjector& injector,
              fault::FaultPlan plan, std::uint64_t seed) {
  injector.load_plan(fault::reseeded(std::move(plan), seed));
  Soc forked = fork(snapshot);
  forked.attach_injector(&injector);
  return forked;
}

fault::ScrubMemory& Soc::mutable_efpga_config() {
  if (efpga_config_.use_count() > 1) {
    efpga_config_ = std::make_shared<fault::ScrubMemory>(*efpga_config_);
  }
  return *efpga_config_;
}

void Soc::attach_injector(fault::FaultInjector* injector) {
  injector_ = injector;
  if (!injector_) return;
  pt_header_corrupt_ = injector_->register_point("efpga.prog.header.corrupt");
  pt_frame_corrupt_ = injector_->register_point("efpga.prog.frame.corrupt");
  pt_frame_drop_ = injector_->register_point("efpga.prog.frame.drop");
  pt_config_rot_ = injector_->register_point("efpga.config.rot");
}

Status Soc::program_efpga(std::span<const std::uint8_t> bitstream) {
  // Integrity gate: a corrupt image is rejected before touching the port.
  auto parsed = nx::parse_bitstream(bitstream);
  if (!parsed.ok()) return parsed.status();
  const nx::ParsedBitstream& image = parsed.value();

  // Header programming: write the three header words, read them back, and
  // re-write on mismatch — in-flight corruption must never install a wrong
  // device id or frame count.
  const std::uint32_t header[3] = {
      nx::kBitstreamMagic, image.device_id,
      static_cast<std::uint32_t>(image.frames.size())};
  bool header_ok = false;
  for (unsigned attempt = 0; attempt <= efpga_cfg.rewrite_budget; ++attempt) {
    if (attempt > 0) {
      charge(backoff_cycles(efpga_cfg.rewrite_backoff_cycles, attempt - 1));
      ++efpga_stats_.header_rewrites;
      if (fdir_) {
        fdir_->publish({fdir::Layer::kEfpga, fdir::Severity::kRetried,
                        ErrorCode::kIntegrityError, /*detail=*/0, cycles});
      }
    }
    std::uint32_t written[3] = {header[0], header[1], header[2]};
    charge(2 * 3 * efpga_cfg.cycles_per_word);  // write + readback
    if (injector_ && injector_->should_fire(pt_header_corrupt_)) {
      const auto idx =
          static_cast<std::size_t>(injector_->rand_below(pt_header_corrupt_, 3));
      written[idx] = static_cast<std::uint32_t>(
          injector_->mutate_word(pt_header_corrupt_, written[idx], 32));
    }
    if (written[0] == header[0] && written[1] == header[1] &&
        written[2] == header[2]) {
      header_ok = true;
      break;
    }
  }
  if (!header_ok) {
    ++efpga_stats_.prog_failures;
    if (fdir_) {
      fdir_->publish({fdir::Layer::kEfpga, fdir::Severity::kExhausted,
                      ErrorCode::kDeadlineExceeded, /*detail=*/0, cycles});
    }
    // The re-write budget is a bounded wait: exhausting it is a deadline
    // expiry, not an internal defect.
    return Status::Error(ErrorCode::kDeadlineExceeded,
                         format("eFPGA header programming failed after %u "
                                "re-writes",
                                efpga_cfg.rewrite_budget));
  }

  // Frame programming into a staging configuration memory: the active
  // configuration is only replaced once every frame passed its readback, so
  // a failed update never disturbs a running accelerator.
  fault::ScrubMemory staging(image.total_words(), fault::Protection::kEdac);
  std::vector<EfpgaFrameDir> dir;
  dir.reserve(image.frames.size());
  std::size_t offset = 0;
  for (std::size_t f = 0; f < image.frames.size(); ++f) {
    const nx::BitstreamFrame& frame = image.frames[f];
    bool frame_ok = false;
    for (unsigned attempt = 0; attempt <= efpga_cfg.rewrite_budget; ++attempt) {
      if (attempt > 0) {
        charge(backoff_cycles(efpga_cfg.rewrite_backoff_cycles, attempt - 1));
        ++efpga_stats_.frame_rewrites;
        if (fdir_) {
          fdir_->publish({fdir::Layer::kEfpga, fdir::Severity::kRetried,
                          ErrorCode::kIntegrityError,
                          static_cast<std::uint32_t>(f), cycles});
        }
      }
      // Write pass. A dropped frame never reaches the array; a corrupted one
      // lands with a flipped word — both are caught by the CRC readback.
      const bool dropped =
          injector_ && injector_->should_fire(pt_frame_drop_);
      charge(frame.words.size() * efpga_cfg.cycles_per_word);
      if (!dropped) {
        std::vector<std::uint32_t> in_flight = frame.words;
        if (injector_ && !in_flight.empty() &&
            injector_->should_fire(pt_frame_corrupt_)) {
          const auto idx = static_cast<std::size_t>(
              injector_->rand_below(pt_frame_corrupt_, in_flight.size()));
          in_flight[idx] = static_cast<std::uint32_t>(
              injector_->mutate_word(pt_frame_corrupt_, in_flight[idx], 32));
        }
        for (std::size_t w = 0; w < in_flight.size(); ++w) {
          staging.write(offset + w, in_flight[w]);
        }
      }
      // Readback: recompute the frame CRC from what the array actually holds.
      std::vector<std::uint32_t> readback(frame.words.size());
      for (std::size_t w = 0; w < readback.size(); ++w) {
        readback[w] = staging.read(offset + w);
      }
      charge(readback.size() * efpga_cfg.cycles_per_word);
      if (nx::frame_crc(frame.column, readback) == frame.crc) {
        frame_ok = true;
        break;
      }
      ++efpga_stats_.frame_crc_mismatches;
    }
    if (!frame_ok) {
      ++efpga_stats_.prog_failures;
      if (fdir_) {
        fdir_->publish({fdir::Layer::kEfpga, fdir::Severity::kExhausted,
                        ErrorCode::kDeadlineExceeded,
                        static_cast<std::uint32_t>(f), cycles});
      }
      return Status::Error(
          ErrorCode::kDeadlineExceeded,
          format("eFPGA frame %zu (column %u) programming failed after %u "
                 "re-writes",
                 f, frame.column, efpga_cfg.rewrite_budget));
    }
    ++efpga_stats_.frames_programmed;
    dir.push_back({frame.column, offset, frame.words.size(), frame.crc});
    offset += frame.words.size();
  }

  // Commit: swap in the fully verified configuration.
  charge(256);  // port finalization
  efpga_config_ = std::make_shared<fault::ScrubMemory>(std::move(staging));
  efpga_dir_ = std::move(dir);
  efpga_programmed = true;
  efpga_device_id = image.device_id;
  efpga_frames = static_cast<unsigned>(image.frames.size());
  return Status::Ok();
}

std::uint64_t Soc::scrub_efpga() {
  if (!efpga_programmed || !efpga_config_) return 0;
  // Scrubbing mutates the configuration in place; detach from any snapshot
  // or fork still sharing it before the first rot/repair.
  fault::ScrubMemory& config = mutable_efpga_config();
  ++efpga_stats_.scrub_passes;
  std::uint64_t repaired_words = 0;
  for (std::size_t f = 0; f < efpga_dir_.size(); ++f) {
    const EfpgaFrameDir& frame = efpga_dir_[f];
    if (frame.words == 0) continue;
    // One rot opportunity per frame per pass: 1 flip is an EDAC-correctable
    // upset, 2 distinct flips in the same word are detected-uncorrectable
    // (SECDED), forcing the frame re-program rung of the ladder.
    if (injector_ && injector_->should_fire(pt_config_rot_)) {
      const std::size_t word =
          frame.offset + static_cast<std::size_t>(
                             injector_->rand_below(pt_config_rot_, frame.words));
      const unsigned width = config.codeword_bits();
      const auto b1 = static_cast<unsigned>(
          injector_->rand_below(pt_config_rot_, width));
      config.flip_raw_bit(word, b1);
      if (injector_->rand_below(pt_config_rot_, 2) == 0) {
        unsigned b2 = b1;
        while (b2 == b1) {
          b2 = static_cast<unsigned>(
              injector_->rand_below(pt_config_rot_, width));
        }
        config.flip_raw_bit(word, b2);
      }
    }
    charge(frame.words * efpga_cfg.cycles_per_word);  // readback scrub
    const fault::ScrubReport report = config.scrub_range(
        frame.offset, frame.offset + frame.words, /*repair_uncorrectable=*/true);
    efpga_stats_.scrub_corrected += report.corrected;
    efpga_stats_.scrub_uncorrectable += report.detected_uncorrectable;
    efpga_stats_.scrub_silent += report.silent_corruptions;
    if (report.repaired > 0) {
      // Frame re-program from the retained configuration source.
      ++efpga_stats_.frames_reprogrammed;
      charge(frame.words * efpga_cfg.cycles_per_word);
    }
    if (fdir_) {
      const auto detail = static_cast<std::uint32_t>(f);
      if (report.corrected > 0) {
        fdir_->publish({fdir::Layer::kEfpga, fdir::Severity::kCorrected,
                        ErrorCode::kOk, detail, cycles});
      }
      if (report.detected_uncorrectable > 0) {
        fdir_->publish({fdir::Layer::kEfpga, fdir::Severity::kUncorrectable,
                        ErrorCode::kIntegrityError, detail, cycles});
      }
      if (report.repaired > 0) {
        // The frame re-program rung: a retry at frame granularity.
        fdir_->publish({fdir::Layer::kEfpga, fdir::Severity::kRetried,
                        ErrorCode::kIntegrityError, detail, cycles});
      }
      if (report.silent_corruptions > 0) {
        fdir_->publish({fdir::Layer::kEfpga, fdir::Severity::kExhausted,
                        ErrorCode::kIntegrityError, detail, cycles});
      }
    }
    repaired_words += report.corrected + report.repaired;
  }
  return repaired_words;
}

std::uint64_t Soc::efpga_config_digest() const {
  Fnv64 hash;
  if (!efpga_config_) return hash.digest();
  for (const EfpgaFrameDir& frame : efpga_dir_) {
    hash.word(frame.column);
    hash.word(frame.words);
    hash.word(frame.crc);
    for (std::size_t w = 0; w < frame.words; ++w) {
      hash.word(efpga_config_->read(frame.offset + w));
    }
  }
  return hash.digest();
}

}  // namespace hermes::boot
