// FrameStore tests: flat layout, span accessors, and agreement between the
// streamed ensemble driver and independently run single-sample trajectories.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>

#include "core/experiment.hpp"
#include "core/frame_store.hpp"
#include "core/presets.hpp"
#include "support/error.hpp"

namespace {

using sops::core::EnsembleSeries;
using sops::core::ExperimentConfig;
using sops::core::FrameStore;
using sops::core::run_experiment;
using sops::geom::Vec2;

TEST(FrameStore, DefaultIsEmpty) {
  const FrameStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.frame_count(), 0u);
  EXPECT_EQ(store.sample_count(), 0u);
  EXPECT_EQ(store.bytes(), 0u);
  EXPECT_EQ(store.storage(), sops::core::StorageMode::kHeap);
}

TEST(FrameStore, FrontBackThrowOnEmptyStore) {
  // frames_ - 1 used to wrap at frames_ == 0 and hand out a wild view; an
  // empty store (default-constructed, or a zero-frame recording) must fail
  // loudly instead.
  const FrameStore store;
  EXPECT_THROW((void)store.front(), sops::PreconditionError);
  EXPECT_THROW((void)store.back(), sops::PreconditionError);
}

TEST(FrameStore, ShapeAndBytes) {
  const FrameStore store(3, 4, 5);
  EXPECT_EQ(store.frame_count(), 3u);
  EXPECT_EQ(store.sample_count(), 4u);
  EXPECT_EQ(store.particle_count(), 5u);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.bytes(), 3u * 4u * 5u * sizeof(Vec2));
  EXPECT_EQ(store[1].size(), 4u);
  EXPECT_EQ(store[1].particle_count(), 5u);
  EXPECT_EQ(store.sample(2, 3).size(), 5u);
}

TEST(FrameStore, SlotsAreContiguousAndDisjoint) {
  FrameStore store(2, 3, 4);
  for (std::size_t f = 0; f < 2; ++f) {
    for (std::size_t s = 0; s < 3; ++s) {
      const auto slot = store.sample_slot(f, s);
      for (std::size_t i = 0; i < 4; ++i) {
        slot[i] = {static_cast<double>(f * 100 + s * 10 + i), 0.0};
      }
    }
  }
  // Reading back through every accessor sees the writes, and the whole
  // buffer is one [frame][sample][particle] stride.
  const Vec2* base = store.front().data();
  for (std::size_t f = 0; f < 2; ++f) {
    EXPECT_EQ(store[f].data(), base + f * 3 * 4);
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(store.sample(f, s).data(), base + (f * 3 + s) * 4);
      for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(store[f][s][i].x, static_cast<double>(f * 100 + s * 10 + i));
      }
    }
  }
  EXPECT_EQ(store.back()[2][3].x, 123.0);
}

TEST(FrameStore, RejectsEmptyDimensions) {
  EXPECT_THROW(FrameStore(0, 1, 1), sops::PreconditionError);
  EXPECT_THROW(FrameStore(1, 0, 1), sops::PreconditionError);
  EXPECT_THROW(FrameStore(1, 1, 0), sops::PreconditionError);
  sops::core::FrameStoreOptions mapped;
  mapped.mode = sops::core::StorageMode::kMapped;
  EXPECT_THROW(FrameStore(0, 1, 1, mapped), sops::PreconditionError);
}

TEST(FrameStore, MappedStoreSameLayoutAndZeroed) {
  sops::core::FrameStoreOptions options;
  options.mode = sops::core::StorageMode::kMapped;
  options.spill_dir = ::testing::TempDir();
  FrameStore store(2, 3, 4, options);
  if (store.storage() != sops::core::StorageMode::kMapped) {
    GTEST_SKIP() << "mmap unavailable: " << store.spill_fallback_reason();
  }
  EXPECT_FALSE(store.spill_path().empty());
  EXPECT_EQ(store.bytes(), 2u * 3u * 4u * sizeof(Vec2));
  // Same flat [frame][sample][particle] stride as the heap backing, and
  // fresh file pages read as zero like a value-initialized vector.
  const Vec2* base = store.front().data();
  for (std::size_t f = 0; f < 2; ++f) {
    EXPECT_EQ(store[f].data(), base + f * 3 * 4);
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(store.sample(f, s).data(), base + (f * 3 + s) * 4);
      for (const Vec2& v : store.sample(f, s)) {
        EXPECT_EQ(v.x, 0.0);
        EXPECT_EQ(v.y, 0.0);
      }
    }
  }
  // Writes land and survive a flush + page release round-trip.
  store.sample_slot(1, 2)[3] = {42.0, -1.0};
  store.flush_samples(0, 3);
  EXPECT_EQ(store.sample(1, 2)[3], (Vec2{42.0, -1.0}));
}

TEST(FrameStore, AutoModeSpillsOnThresholdOnly) {
  sops::core::FrameStoreOptions options;
  options.mode = sops::core::StorageMode::kAuto;
  options.spill_dir = ::testing::TempDir();
  options.auto_spill_bytes = 1;  // any payload crosses it
  const FrameStore spilled(2, 3, 4, options);
  options.auto_spill_bytes = std::size_t{1} << 40;
  const FrameStore kept(2, 3, 4, options);
  EXPECT_EQ(kept.storage(), sops::core::StorageMode::kHeap);
  EXPECT_TRUE(kept.spill_path().empty());
  if (spilled.storage() == sops::core::StorageMode::kMapped) {
    EXPECT_FALSE(spilled.spill_path().empty());
  }
}

TEST(FrameStore, UnwritableSpillDirFallsBackToHeap) {
  sops::core::FrameStoreOptions options;
  options.mode = sops::core::StorageMode::kMapped;
  options.spill_dir = "/nonexistent/sops-spill-dir";
  FrameStore store(2, 3, 4, options);
  EXPECT_EQ(store.storage(), sops::core::StorageMode::kHeap);
  EXPECT_TRUE(store.spill_path().empty());
  EXPECT_FALSE(store.spill_fallback_reason().empty());
  // The fallback is fully functional storage.
  store.sample_slot(0, 0)[0] = {1.0, 2.0};
  store.flush_samples(0, 3);  // no-op on heap
  EXPECT_EQ(store.sample(0, 0)[0], (Vec2{1.0, 2.0}));
  // An out-of-range flush is a caller bug, not a silent no-op.
  EXPECT_THROW(store.flush_samples(0, 4), sops::PreconditionError);
}

TEST(FrameStore, ShareKeepsTheBlockPastTheStore) {
  // Heap and mapped backings alike: a shared handle reads the very block
  // the store wrote, and keeps it (and a spill file) after the store is
  // gone; the spill file goes with the last handle.
  sops::core::FrameStoreOptions mapped;
  mapped.mode = sops::core::StorageMode::kMapped;
  mapped.spill_dir = ::testing::TempDir();
  for (const sops::core::FrameStoreOptions& options :
       {sops::core::FrameStoreOptions{}, mapped}) {
    std::optional<FrameStore> store(std::in_place, 2, 3, 4, options);
    store->sample_slot(1, 2)[3] = {42.0, -1.0};
    const std::string spill = store->spill_path();
    FrameStore handle = store->share();
    EXPECT_EQ(handle.sample(1, 2).data(), store->sample(1, 2).data());
    EXPECT_EQ(handle.storage(), store->storage());
    EXPECT_EQ(handle.bytes(), store->bytes());
    store->sample_slot(0, 1)[0] = {7.0, 8.0};  // writes after the share show
    store->flush_samples(0, 3);
    store.reset();
    EXPECT_EQ(handle.sample(1, 2)[3], (Vec2{42.0, -1.0}));
    EXPECT_EQ(handle.sample(0, 1)[0], (Vec2{7.0, 8.0}));
    if (!spill.empty()) {
      EXPECT_TRUE(std::filesystem::exists(spill));
      handle = FrameStore();
      EXPECT_FALSE(std::filesystem::exists(spill));
    }
  }
}

TEST(StreamedExperiment, StrideBeyondStepsStillRecordsFrames) {
  // The audit behind the empty-store guards: a recording grid always
  // contains step 0 and the final step, so even stride > steps yields a
  // two-frame store and front()/back() stay in bounds.
  sops::sim::SimulationConfig simulation =
      sops::core::presets::fig4_three_type_collective();
  simulation.steps = 3;
  simulation.record_stride = 100;
  ExperimentConfig experiment(simulation);
  experiment.samples = 2;
  const EnsembleSeries series = run_experiment(experiment);
  EXPECT_EQ(series.frame_steps, (std::vector<std::size_t>{0, 3}));
  EXPECT_EQ(series.frames.frame_count(), 2u);
  EXPECT_EQ(series.frames.front().size(), 2u);
  EXPECT_EQ(series.frames.back().particle_count(),
            simulation.types.size());
}

TEST(StreamedExperiment, MatchesIndependentSingleRuns) {
  // The flat store must contain, slot for slot, what m independent
  // run_simulation calls produce for the same streams.
  sops::sim::SimulationConfig simulation =
      sops::core::presets::fig4_three_type_collective();
  simulation.steps = 9;
  simulation.record_stride = 4;
  ExperimentConfig experiment(simulation);
  experiment.samples = 4;
  const EnsembleSeries series = run_experiment(experiment);
  EXPECT_EQ(series.frame_steps, (std::vector<std::size_t>{0, 4, 8, 9}));

  for (std::size_t s = 0; s < experiment.samples; ++s) {
    sops::sim::SimulationConfig sample = simulation;
    sample.stream = s;
    const sops::sim::Trajectory trajectory = sops::sim::run_simulation(sample);
    ASSERT_EQ(trajectory.frame_steps, series.frame_steps);
    EXPECT_EQ(trajectory.equilibrium_step, series.equilibrium_steps[s]);
    for (std::size_t f = 0; f < series.frame_count(); ++f) {
      const auto slot = series.frames.sample(f, s);
      for (std::size_t i = 0; i < slot.size(); ++i) {
        EXPECT_EQ(slot[i], trajectory.frames[f][i]) << "f=" << f << " s=" << s;
      }
    }
  }
}

}  // namespace
