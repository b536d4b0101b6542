// Checkpoint catalog + cr::Session control-plane tests: the catalog is
// repository state (a fresh Deployment/driver discovers and restarts from
// checkpoints it never took), selection refuses records that never
// completed (drain killed mid-publish), restart works from older and
// tagged lines bit-exactly, lineage is recorded, and the retention policy
// retires records and reclaims their snapshot storage without damaging any
// kept rollback target.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "blob/client.h"
#include "common/codec.h"
#include "core/blobcr.h"
#include "flush/flush_agent.h"
#include "pfs/pvfs.h"
#include "sim/sim.h"

namespace blobcr::cr {
namespace {

using common::Buffer;
using core::Backend;
using core::Cloud;
using core::CloudConfig;
using core::Deployment;
using sim::Task;

CloudConfig tiny_cfg(Backend backend, bool flush = false) {
  CloudConfig cfg;
  cfg.compute_nodes = 6;
  cfg.metadata_nodes = 2;
  cfg.backend = backend;
  cfg.flush.enabled = flush;
  cfg.os = vm::GuestOsConfig::test_tiny();
  cfg.vm.os_ram_bytes = 20 * common::kMB;
  return cfg;
}

Task<> write_state(vm::VmInstance* vm, std::uint64_t seed) {
  guestfs::SimpleFs* fs = vm->fs();
  co_await fs->write_file("/data/state.bin", Buffer::pattern(300'000, seed));
  co_await fs->sync();
}

Task<bool> state_matches(vm::VmInstance* vm, std::uint64_t seed) {
  const Buffer state = co_await vm->fs()->read_file("/data/state.bin");
  co_return state == Buffer::pattern(300'000, seed);
}

// ---------------------------------------------------------------------------
// The acceptance property: a catalog written by one Deployment is readable
// by a freshly constructed one. After destroy_all() plus teardown of every
// driver-held object (Deployment, Session — total driver loss), a fresh
// Session restores bit-exact guest state from repository-resident records
// alone.
// ---------------------------------------------------------------------------

TEST(CrCatalogTest, FreshDeploymentRestartsFromCatalogAfterDriverLoss) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  bool ok0 = false, ok1 = false;

  cloud.run([](Cloud* cl, bool* ok0, bool* ok1) -> Task<> {
    co_await cl->provision_base_image();
    {
      // Driver generation 1: deploy, checkpoint, then lose everything.
      auto dep = std::make_unique<Deployment>(*cl, 2);
      auto session = std::make_unique<Session>(*dep);
      co_await dep->deploy_and_boot();
      co_await write_state(&dep->vm(0), 10);
      co_await write_state(&dep->vm(1), 11);
      const CheckpointRecord rec = co_await session->checkpoint("gen1");
      EXPECT_EQ(rec.state, RecordState::Complete);
      EXPECT_GT(rec.total_bytes(), 0u);
      dep->destroy_all();
      // Total driver loss: no in-memory object survives this block.
    }

    // Driver generation 2: a fresh Deployment + Session discover the
    // catalog and restart a checkpoint they never took.
    Deployment dep2(*cl, 2);
    Session session2(dep2);
    const std::vector<CheckpointRecord> records = co_await session2.list();
    EXPECT_EQ(records.size(), 1u);
    if (records.empty()) co_return;
    EXPECT_EQ(records[0].tag, "gen1");
    const CheckpointRecord rec =
        co_await session2.restart(Selector::latest(), /*node_offset=*/2);
    EXPECT_EQ(rec.tag, "gen1");
    *ok0 = co_await state_matches(&dep2.vm(0), 10);
    *ok1 = co_await state_matches(&dep2.vm(1), 11);
  }(&cloud, &ok0, &ok1));

  EXPECT_TRUE(ok0);
  EXPECT_TRUE(ok1);
}

// The same property on a qcow baseline: the catalog lives in a PVFS file
// and the records round-trip the full qcow table state.
TEST(CrCatalogTest, QcowCatalogOnPvfsSurvivesDriverLoss) {
  Cloud cloud(tiny_cfg(Backend::Qcow2Disk));
  bool ok = false;

  cloud.run([](Cloud* cl, bool* ok) -> Task<> {
    co_await cl->provision_base_image();
    {
      auto dep = std::make_unique<Deployment>(*cl, 1);
      auto session = std::make_unique<Session>(*dep);
      co_await dep->deploy_and_boot();
      co_await write_state(&dep->vm(0), 77);
      const CheckpointRecord rec = co_await session->checkpoint();
      EXPECT_EQ(rec.state, RecordState::Complete);
      EXPECT_FALSE(rec.snapshots.at(0).pvfs_path.empty());
      dep->destroy_all();
    }
    Deployment dep2(*cl, 1);
    Session session2(dep2);
    (void)co_await session2.restart(Selector::latest(), /*node_offset=*/2);
    *ok = co_await state_matches(&dep2.vm(0), 77);
  }(&cloud, &ok));

  EXPECT_TRUE(ok);
}

// ---------------------------------------------------------------------------
// The catalog log is a persistent format: a frame whose lengths disagree,
// whose record holds an out-of-range enum byte or whose record is truncated
// is rejected with CrError when a fresh driver opens the log, instead of
// decoding garbage.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kFrameMagic = 0x4b524342;  // "BCRK"

Buffer crafted_frame(std::uint32_t frame_len, std::uint32_t payload_len,
                     Buffer payload) {
  common::ByteWriter header;
  header.u32(kFrameMagic);
  header.u32(frame_len);
  header.u32(payload_len);
  Buffer out = header.take();
  out.append(std::move(payload));
  if (out.size() < Catalog::kRecordAlign)
    out.append(Buffer::zeros(Catalog::kRecordAlign - out.size()));
  return out;
}

/// A one-record payload; `snapshot_backend` >= 0 adds one snapshot whose
/// backend byte is that value (the decoder stops right after it on error).
Buffer crafted_record(std::uint8_t state, int snapshot_backend = -1) {
  common::ByteWriter w;
  w.u64(1);  // id
  w.u64(0);  // parent
  w.u8(state);
  w.u64(0);  // created
  w.str("crafted");
  w.u32(snapshot_backend < 0 ? 0 : 1);
  if (snapshot_backend >= 0) {
    w.u64(0);  // instance
    w.u8(static_cast<std::uint8_t>(snapshot_backend));
  }
  return w.take();
}

TEST(CrCatalogTest, CorruptFramesAreRejectedOnOpen) {
  struct Case {
    const char* name;
    Buffer log;
  };
  std::vector<Case> cases;
  cases.push_back({"short frame_len", crafted_frame(12, 100, Buffer())});
  // 12 + payload_len wraps to 4 in 32-bit arithmetic.
  cases.push_back({"wrapping payload_len",
                   crafted_frame(Catalog::kRecordAlign, 0xFFFF'FFF8u,
                                 crafted_record(1))});
  const Buffer bad_state = crafted_record(9);
  cases.push_back({"bad state byte",
                   crafted_frame(Catalog::kRecordAlign,
                                 static_cast<std::uint32_t>(bad_state.size()),
                                 bad_state)});
  const Buffer bad_backend = crafted_record(1, 7);
  cases.push_back(
      {"bad backend byte",
       crafted_frame(Catalog::kRecordAlign,
                     static_cast<std::uint32_t>(bad_backend.size()),
                     bad_backend)});

  // Lengths agree, but the record stops right after a valid backend byte.
  const Buffer truncated = crafted_record(1, 0);
  cases.push_back(
      {"truncated record",
       crafted_frame(Catalog::kRecordAlign,
                     static_cast<std::uint32_t>(truncated.size()),
                     truncated)});

  Cloud cloud(tiny_cfg(Backend::Qcow2Disk));
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string error;
    cloud.run([](Cloud* cl, Case* c, std::string* error) -> Task<> {
      Catalog::Config cfg;
      cfg.name = std::string("/crafted/") + c->name;
      pfs::PvfsClient pvfs(*cl->pvfs(), cfg.client_node);
      const pfs::FileId file = co_await pvfs.create(cfg.name);
      co_await pvfs.write(file, 0, c->log);
      Catalog fresh(*cl, cfg);
      try {
        co_await fresh.open();
      } catch (const CrError& e) {
        *error = e.what();
      }
    }(&cloud, &c, &error));
    EXPECT_NE(error.find("corrupt checkpoint catalog"), std::string::npos)
        << "error: \"" << error << "\"";
  }
}

// ---------------------------------------------------------------------------
// Selection semantics: older and tagged lines restart bit-exactly; lineage
// records which checkpoint the deployment descended from.
// ---------------------------------------------------------------------------

TEST(CrCatalogTest, RestartFromOlderCheckpointIsBitExact) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  bool old_ok = false, latest_ok = false;
  CheckpointId first_id = 0, second_id = 0, third_parent = 0;

  cloud.run([](Cloud* cl, bool* old_ok, bool* latest_ok, CheckpointId* id1,
               CheckpointId* id2, CheckpointId* parent3) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 2);
    Session session(dep);
    co_await dep.deploy_and_boot();

    co_await write_state(&dep.vm(0), 100);
    co_await write_state(&dep.vm(1), 101);
    const CheckpointRecord one = co_await session.checkpoint("one");
    *id1 = one.id;
    EXPECT_EQ(one.parent, 0u);

    co_await write_state(&dep.vm(0), 200);
    co_await write_state(&dep.vm(1), 201);
    const CheckpointRecord two = co_await session.checkpoint("two");
    *id2 = two.id;
    EXPECT_EQ(two.parent, one.id);

    // Roll back past the latest line to the OLDER checkpoint, by tag.
    dep.destroy_all();
    const CheckpointRecord back =
        co_await session.restart(Selector::by_tag("one"), 2);
    EXPECT_EQ(back.id, one.id);
    *old_ok = (co_await state_matches(&dep.vm(0), 100)) &&
              (co_await state_matches(&dep.vm(1), 101));

    // A checkpoint taken after that rollback descends from "one", not from
    // the abandoned "two" line.
    const CheckpointRecord three = co_await session.checkpoint();
    *parent3 = three.parent;

    // The newer line is still selectable — forward again, by id.
    dep.destroy_all();
    (void)co_await session.restart(Selector::by_id(two.id), 4);
    *latest_ok = (co_await state_matches(&dep.vm(0), 200)) &&
                 (co_await state_matches(&dep.vm(1), 201));
  }(&cloud, &old_ok, &latest_ok, &first_id, &second_id, &third_parent));

  EXPECT_TRUE(old_ok);
  EXPECT_TRUE(latest_ok);
  EXPECT_EQ(third_parent, first_id);
  EXPECT_NE(second_id, 0u);
}

// ---------------------------------------------------------------------------
// Completeness: a drain killed mid-publish (the flush crash harness's
// fail-stop-at-stage-boundary injection) leaves an Incomplete record that
// selection refuses; the previous Complete line stays the restart target.
// ---------------------------------------------------------------------------

TEST(CrCatalogTest, DrainKilledMidPublishLeavesUnselectableIncompleteRecord) {
  Cloud cloud(tiny_cfg(Backend::BlobCR, /*flush=*/true));
  bool restored_ok = false;
  bool ckpt_threw = false, select_threw = false;
  RecordState dead_state = RecordState::Staged;

  cloud.run([](Cloud* cl, bool* restored_ok, bool* ckpt_threw,
               bool* select_threw, RecordState* dead_state) -> Task<> {
    sim::Event never(cl->simulation());  // parking spot for the kill probe
    co_await cl->provision_base_image();
    auto dep = std::make_unique<Deployment>(*cl, 1);
    auto session = std::make_unique<Session>(*dep);
    co_await dep->deploy_and_boot();

    co_await write_state(&dep->vm(0), 500);
    const CheckpointRecord good = co_await session->checkpoint("good");
    // The snapshot was recorded while provisional; the Complete record
    // carries the published version's exact size.
    for (const core::InstanceSnapshot& s : good.snapshots) {
      const blob::VersionInfo& v = cl->store_of_blob(s.image)
                                       ->version_manager()
                                       .peek(s.image)
                                       .version(s.version);
      EXPECT_EQ(s.bytes, v.new_chunk_bytes + v.new_meta_bytes);
    }

    // Arm the flush crash harness: fail-stop the node's drain agent at the
    // Putting stage boundary, exactly mid-publish.
    core::MirrorDevice* m = dep->instance(0).mirror.get();
    EXPECT_NE(m->flush_agent(), nullptr);
    if (m->flush_agent() == nullptr) co_return;
    bool armed = true;
    m->flush_agent()->set_stage_probe(
        [cl, m, &armed, &never](blob::CommitStage s) -> Task<> {
          if (armed && s == blob::CommitStage::Putting) {
            armed = false;
            cl->simulation().call_in(0, [m] { m->flush_agent()->fail_stop(); });
            co_await never.wait();  // killed while suspended here
          }
        });

    co_await write_state(&dep->vm(0), 600);
    CheckpointId dead_id = 0;
    try {
      (void)co_await session->checkpoint("doomed");
    } catch (const blob::BlobError&) {
      *ckpt_threw = true;
    }
    // The doomed record exists, is Incomplete, and selection refuses it.
    for (const CheckpointRecord& rec : co_await session->list()) {
      if (rec.tag == "doomed") {
        dead_id = rec.id;
        *dead_state = rec.state;
      }
    }
    EXPECT_NE(dead_id, 0u);
    if (dead_id == 0) co_return;
    try {
      (void)co_await session->catalog().select(Selector::by_id(dead_id));
    } catch (const CrError&) {
      *select_threw = true;
    }

    // Driver loss on top of the crash: a fresh session must still pick the
    // good line and restore it bit for bit.
    dep->destroy_all();
    session.reset();
    dep = std::make_unique<Deployment>(*cl, 1);
    Session fresh(*dep);
    const CheckpointRecord rec =
        co_await fresh.restart(Selector::latest(), /*node_offset=*/3);
    EXPECT_EQ(rec.id, good.id);
    *restored_ok = co_await state_matches(&dep->vm(0), 500);
  }(&cloud, &restored_ok, &ckpt_threw, &select_threw, &dead_state));

  EXPECT_TRUE(ckpt_threw) << "drain kill never surfaced";
  EXPECT_EQ(dead_state, RecordState::Incomplete);
  EXPECT_TRUE(select_threw) << "incomplete record was selectable";
  EXPECT_TRUE(restored_ok);
}

// A record left merely Staged by a dead driver (killed between stage and
// publish, so nobody marked it) is also refused, and a restart sweeps it to
// Incomplete.
TEST(CrCatalogTest, DanglingStagedRecordIsSweptOnRestart) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  RecordState swept = RecordState::Staged;
  bool ok = false;

  cloud.run([](Cloud* cl, RecordState* swept, bool* ok) -> Task<> {
    co_await cl->provision_base_image();
    auto dep = std::make_unique<Deployment>(*cl, 1);
    auto session = std::make_unique<Session>(*dep);
    co_await dep->deploy_and_boot();
    co_await write_state(&dep->vm(0), 41);
    (void)co_await session->checkpoint();
    // Stage a second line but "die" before publishing it.
    co_await write_state(&dep->vm(0), 42);
    (void)co_await dep->checkpoint_all();
    co_await session->stage_last("never-published");
    dep->destroy_all();
    session.reset();

    Deployment dep2(*cl, 1);
    Session fresh(dep2);
    (void)co_await fresh.restart(Selector::latest(), 2);
    *ok = co_await state_matches(&dep2.vm(0), 41);
    for (const CheckpointRecord& rec : co_await fresh.list()) {
      if (rec.tag == "never-published") *swept = rec.state;
    }
  }(&cloud, &swept, &ok));

  EXPECT_TRUE(ok);
  EXPECT_EQ(swept, RecordState::Incomplete);
}

// ---------------------------------------------------------------------------
// Retention: keep-last-N retires old untagged records and reclaims their
// snapshot versions through the GC; tagged records survive and stay
// restartable bit-exactly after the reclamation around them.
// ---------------------------------------------------------------------------

TEST(CrRetentionTest, KeepLastReclaimsUntaggedAndPreservesTagged) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  std::uint64_t reclaimed = 0;
  std::size_t complete_count = 0, retired_count = 0;
  bool golden_ok = false;

  cloud.run([](Cloud* cl, std::uint64_t* reclaimed, std::size_t* n_complete,
               std::size_t* n_retired, bool* golden_ok) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    Session::Config scfg;
    scfg.retention.keep_last = 1;
    scfg.retention.keep_tagged = true;
    Session session(dep, scfg);
    co_await dep.deploy_and_boot();

    co_await write_state(&dep.vm(0), 1);
    (void)co_await session.checkpoint("golden");
    for (std::uint64_t seed = 2; seed <= 4; ++seed) {
      co_await write_state(&dep.vm(0), seed);
      (void)co_await session.checkpoint();  // auto-retention after each
    }
    *reclaimed = session.gc_reclaimed_bytes();
    for (const CheckpointRecord& rec : co_await session.list()) {
      if (rec.state == RecordState::Complete) ++*n_complete;
      if (rec.state == RecordState::Retired) ++*n_retired;
    }

    // The tagged line survived retention AND the GC around it: restart it.
    dep.destroy_all();
    (void)co_await session.restart(Selector::by_tag("golden"), 2);
    *golden_ok = co_await state_matches(&dep.vm(0), 1);
  }(&cloud, &reclaimed, &complete_count, &retired_count, &golden_ok));

  EXPECT_GT(reclaimed, 0u);
  // golden (tagged) + the newest untagged record stay Complete; the middle
  // untagged records retired.
  EXPECT_EQ(complete_count, 2u);
  EXPECT_EQ(retired_count, 2u);
  EXPECT_TRUE(golden_ok);
}

// ---------------------------------------------------------------------------
// Elastic (N -> M) restart: the catalog's N snapshot tuples come back as M
// instances through the content-addressed plane. The acceptance property is
// bit-exactness of the UNION of device images across the remap — every
// source's state lands on exactly one new shard (boot device or attached
// volume) — plus the catalog invariants: no new record, lineage preserved,
// and the next checkpoint records M tuples.
// ---------------------------------------------------------------------------

Task<bool> attached_matches(Deployment* dep, std::size_t i, std::size_t k,
                            std::uint64_t seed) {
  const auto fs =
      co_await guestfs::SimpleFs::mount(dep->attached_volume(i, k).device());
  const Buffer state = co_await fs->read_file("/data/state.bin");
  co_return state == Buffer::pattern(300'000, seed);
}

TEST(CrElasticTest, ShrinkRestartUnionBitExactColdCaches) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  bool union_ok = false;
  std::size_t records_before = 0, records_after = 0;
  std::size_t post_tuples = 0;
  CheckpointId pre_id = 0, post_parent = 0;

  cloud.run([](Cloud* cl, bool* union_ok, std::size_t* rec_before,
               std::size_t* rec_after, std::size_t* post_tuples,
               CheckpointId* pre_id, CheckpointId* post_parent) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 4);
    Session session(dep);
    co_await dep.deploy_and_boot();
    for (std::size_t i = 0; i < 4; ++i)
      co_await write_state(&dep.vm(i), 10 + i);
    const CheckpointRecord pre = co_await session.checkpoint("pre-rescale");
    *pre_id = pre.id;
    *rec_before = (co_await session.list()).size();

    // Shrink 4 -> 2 on fresh nodes with cold caches: every byte comes back
    // through the repository, remapped as two contiguous shards.
    dep.destroy_all();
    Session::RestartOptions opts;
    opts.node_offset = 4;
    opts.cold_caches = true;
    opts.instances = 2;
    const CheckpointRecord rec =
        co_await session.restart(Selector::latest(), opts);
    EXPECT_EQ(rec.id, pre.id);
    EXPECT_EQ(dep.size(), 2u);
    EXPECT_EQ(dep.attached_count(0), 1u);
    EXPECT_EQ(dep.attached_count(1), 1u);
    // Shards: instance 0 boots source 0 and attaches source 1; instance 1
    // boots source 2 and attaches source 3.
    *union_ok = (co_await state_matches(&dep.vm(0), 10)) &&
                (co_await attached_matches(&dep, 0, 0, 11)) &&
                (co_await state_matches(&dep.vm(1), 12)) &&
                (co_await attached_matches(&dep, 1, 0, 13));
    // The rescale wrote no new catalog state and kept the lineage head.
    *rec_after = (co_await session.list()).size();
    EXPECT_EQ(session.lineage_head(), pre.id);

    // The next checkpoint from the 2-instance deployment records 2 tuples,
    // descending from the pre-rescale record.
    co_await write_state(&dep.vm(0), 20);
    co_await write_state(&dep.vm(1), 21);
    const CheckpointRecord post = co_await session.checkpoint("post-rescale");
    *post_tuples = post.snapshots.size();
    *post_parent = post.parent;
  }(&cloud, &union_ok, &records_before, &records_after, &post_tuples,
    &pre_id, &post_parent));

  EXPECT_TRUE(union_ok);
  EXPECT_EQ(records_after, records_before);
  EXPECT_EQ(post_tuples, 2u);
  EXPECT_EQ(post_parent, pre_id);
}

TEST(CrElasticTest, GrowRestartClonesDeriveFreshImagesWarmCaches) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  bool union_ok = false;
  std::size_t post_tuples = 0;
  bool images_distinct = false;
  CheckpointId pre_id = 0, post_parent = 0;

  cloud.run([](Cloud* cl, bool* union_ok, std::size_t* post_tuples,
               bool* images_distinct, CheckpointId* pre_id,
               CheckpointId* post_parent) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 2);
    Session session(dep);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 30);
    co_await write_state(&dep.vm(1), 31);
    const CheckpointRecord pre = co_await session.checkpoint("pre-rescale");
    *pre_id = pre.id;

    // Grow 2 -> 4, warm caches: sources 0 and 1 each feed two instances.
    dep.destroy_all();
    Session::RestartOptions opts;
    opts.node_offset = 2;
    opts.instances = 4;
    (void)co_await session.restart(Selector::latest(), opts);
    EXPECT_EQ(dep.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_EQ(dep.attached_count(i), 0u);
    *union_ok = (co_await state_matches(&dep.vm(0), 30)) &&
                (co_await state_matches(&dep.vm(1), 30)) &&
                (co_await state_matches(&dep.vm(2), 31)) &&
                (co_await state_matches(&dep.vm(3), 31));

    // A checkpoint from the grown deployment records 4 tuples, and no two
    // instances committed into the same checkpoint image (the clones
    // derived fresh ones).
    for (std::size_t i = 0; i < 4; ++i)
      co_await write_state(&dep.vm(i), 40 + i);
    const CheckpointRecord post = co_await session.checkpoint("post-rescale");
    *post_tuples = post.snapshots.size();
    *post_parent = post.parent;
    std::vector<blob::BlobId> images;
    for (const core::InstanceSnapshot& s : post.snapshots) {
      if (s.image != 0) images.push_back(s.image);
    }
    std::sort(images.begin(), images.end());
    *images_distinct =
        images.size() == 4 &&
        std::adjacent_find(images.begin(), images.end()) == images.end();
  }(&cloud, &union_ok, &post_tuples, &images_distinct, &pre_id,
    &post_parent));

  EXPECT_TRUE(union_ok);
  EXPECT_EQ(post_tuples, 4u);
  EXPECT_TRUE(images_distinct);
  EXPECT_EQ(post_parent, pre_id);
}

TEST(CrElasticTest, EqualCountDegeneratesToClassicRestart) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  bool ok = false;

  cloud.run([](Cloud* cl, bool* ok) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 2);
    Session session(dep);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 50);
    co_await write_state(&dep.vm(1), 51);
    (void)co_await session.checkpoint();
    dep.destroy_all();
    Session::RestartOptions opts;
    opts.node_offset = 2;
    opts.cold_caches = true;
    opts.instances = 2;  // M == N: the identity plan
    (void)co_await session.restart(Selector::latest(), opts);
    EXPECT_EQ(dep.size(), 2u);
    EXPECT_EQ(dep.attached_count(0), 0u);
    EXPECT_EQ(dep.attached_count(1), 0u);
    *ok = (co_await state_matches(&dep.vm(0), 50)) &&
          (co_await state_matches(&dep.vm(1), 51));
  }(&cloud, &ok));

  EXPECT_TRUE(ok);
}

// The same union property on the qcow2-disk baseline: attached volumes open
// the source's snapshot container straight off PVFS, and grow clones copy
// the container to a fresh file so no two instances commit into one.
TEST(CrElasticTest, QcowDiskShrinkAndGrowUnionBitExact) {
  Cloud cloud(tiny_cfg(Backend::Qcow2Disk));
  bool shrink_ok = false, grow_ok = false;
  bool paths_distinct = false;

  cloud.run([](Cloud* cl, bool* shrink_ok, bool* grow_ok,
               bool* paths_distinct) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 3);
    Session session(dep);
    co_await dep.deploy_and_boot();
    for (std::size_t i = 0; i < 3; ++i)
      co_await write_state(&dep.vm(i), 60 + i);
    (void)co_await session.checkpoint("pre");

    // Shrink 3 -> 2: instance 0 boots source 0; instance 1 boots source 1
    // and attaches source 2.
    dep.destroy_all();
    Session::RestartOptions shrink;
    shrink.node_offset = 3;
    shrink.instances = 2;
    (void)co_await session.restart(Selector::latest(), shrink);
    EXPECT_EQ(dep.size(), 2u);
    EXPECT_EQ(dep.attached_count(1), 1u);
    *shrink_ok = (co_await state_matches(&dep.vm(0), 60)) &&
                 (co_await state_matches(&dep.vm(1), 61)) &&
                 (co_await attached_matches(&dep, 1, 0, 62));

    // Grow back 3 -> 4 from the same record: source 0 feeds instances 0
    // and 1 (the clone gets a fresh container copy).
    dep.destroy_all();
    Session::RestartOptions grow;
    grow.node_offset = 0;
    grow.instances = 4;
    (void)co_await session.restart(Selector::latest(), grow);
    EXPECT_EQ(dep.size(), 4u);
    *grow_ok = (co_await state_matches(&dep.vm(0), 60)) &&
               (co_await state_matches(&dep.vm(1), 60)) &&
               (co_await state_matches(&dep.vm(2), 61)) &&
               (co_await state_matches(&dep.vm(3), 62));

    // Distinct containers: a new checkpoint from the grown deployment
    // writes 4 tuples with 4 distinct snapshot files.
    for (std::size_t i = 0; i < 4; ++i)
      co_await write_state(&dep.vm(i), 70 + i);
    const CheckpointRecord post = co_await session.checkpoint("post");
    std::vector<std::string> paths;
    for (const core::InstanceSnapshot& s : post.snapshots)
      paths.push_back(s.pvfs_path);
    std::sort(paths.begin(), paths.end());
    *paths_distinct =
        paths.size() == 4 && !paths[0].empty() &&
        std::adjacent_find(paths.begin(), paths.end()) == paths.end();
  }(&cloud, &shrink_ok, &grow_ok, &paths_distinct));

  EXPECT_TRUE(shrink_ok);
  EXPECT_TRUE(grow_ok);
  EXPECT_TRUE(paths_distinct);
}

// Growing past the compute pool trips the same placement validation the
// Deployment constructor enforces: M instances need M distinct nodes.
TEST(CrElasticTest, GrowBeyondComputePoolRefused) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));  // 6 compute nodes
  bool threw = false;

  cloud.run([](Cloud* cl, bool* threw) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 2);
    Session session(dep);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 1);
    co_await write_state(&dep.vm(1), 2);
    (void)co_await session.checkpoint();
    Session::RestartOptions opts;
    opts.instances = 7;
    try {
      (void)co_await session.restart(Selector::latest(), opts);
    } catch (const std::invalid_argument&) {
      *threw = true;
    }
  }(&cloud, &threw));

  EXPECT_TRUE(threw);
}

// qcow2-full resumes full VM state (rank count baked in): rescaling is
// refused before the running deployment is torn down, while a restart at
// the record's own width resumes every instance bit-exactly.
TEST(CrElasticTest, QcowFullRescaleRefusedWithoutTeardown) {
  Cloud cloud(tiny_cfg(Backend::Qcow2Full));
  bool threw = false, still_ok = false, resumed_ok = false;

  cloud.run([](Cloud* cl, bool* threw, bool* still_ok,
               bool* resumed_ok) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 2);
    Session session(dep);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 80);
    co_await write_state(&dep.vm(1), 81);
    (void)co_await session.checkpoint();
    Session::RestartOptions opts;
    opts.instances = 1;
    try {
      (void)co_await session.restart(Selector::latest(), opts);
    } catch (const CrError&) {
      *threw = true;
    }
    // The refusal happened before teardown: the deployment still runs and
    // its state is intact.
    *still_ok = (co_await state_matches(&dep.vm(0), 80)) &&
                (co_await state_matches(&dep.vm(1), 81));

    // M == N: the identity plan resumes both full-VM snapshots.
    dep.destroy_all();
    (void)co_await session.restart(Selector::latest(), /*node_offset=*/2);
    EXPECT_EQ(dep.size(), 2u);
    *resumed_ok = (co_await state_matches(&dep.vm(0), 80)) &&
                  (co_await state_matches(&dep.vm(1), 81));
  }(&cloud, &threw, &still_ok, &resumed_ok));

  EXPECT_TRUE(threw);
  EXPECT_TRUE(still_ok);
  EXPECT_TRUE(resumed_ok);
}

// ---------------------------------------------------------------------------
// build_restart_plan: the pure remap every restart runs through, checked
// without a deployment.
// ---------------------------------------------------------------------------

/// Source tuple i carries image 100 + i, so a plan entry names its source.
std::vector<core::InstanceSnapshot> source_line(
    std::size_t n, Backend backend = Backend::BlobCR) {
  std::vector<core::InstanceSnapshot> line(n);
  for (std::size_t i = 0; i < n; ++i) {
    line[i].instance = i;
    line[i].backend = backend;
    line[i].image = 100 + i;
    line[i].version = 1 + i;
    line[i].pvfs_path = "/ckpt/inst" + std::to_string(i) + ".qcow2";
    line[i].bytes = 1000 * (i + 1);
  }
  return line;
}

std::size_t source_of(const core::InstanceSnapshot& s) { return s.image - 100; }

TEST(CrRestartPlanTest, EqualCountIsTheIdentityPlan) {
  for (const Backend backend :
       {Backend::BlobCR, Backend::Qcow2Disk, Backend::Qcow2Full}) {
    const std::vector<core::InstanceSnapshot> line = source_line(4, backend);
    const core::RestartPlan plan = build_restart_plan(line, 4);
    ASSERT_EQ(plan.instances.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      const core::InstancePlan& ip = plan.instances[i];
      EXPECT_EQ(ip.boot.instance, i);
      EXPECT_EQ(ip.boot.backend, backend);
      EXPECT_EQ(ip.boot.image, line[i].image);
      EXPECT_EQ(ip.boot.version, line[i].version);
      EXPECT_EQ(ip.boot.pvfs_path, line[i].pvfs_path);
      EXPECT_EQ(ip.boot.bytes, line[i].bytes);
      EXPECT_TRUE(ip.attached.empty());
      EXPECT_FALSE(ip.fresh_image);
    }
  }
}

TEST(CrRestartPlanTest, ShrinkShardsAreContiguousAndCoverEachSourceOnce) {
  for (const std::size_t n : {2u, 5u, 7u, 12u}) {
    const std::vector<core::InstanceSnapshot> line = source_line(n);
    for (std::size_t m = 1; m < n; ++m) {
      const core::RestartPlan plan = build_restart_plan(line, m);
      ASSERT_EQ(plan.instances.size(), m);
      // Walking every instance's boot tuple then its attached volumes must
      // visit the sources 0..n-1 in order, each exactly once.
      std::size_t next = 0;
      for (std::size_t i = 0; i < m; ++i) {
        const core::InstancePlan& ip = plan.instances[i];
        EXPECT_EQ(ip.boot.instance, i);
        EXPECT_FALSE(ip.fresh_image);
        EXPECT_EQ(source_of(ip.boot), next++) << "n=" << n << " m=" << m;
        for (const core::InstanceSnapshot& a : ip.attached)
          EXPECT_EQ(source_of(a), next++) << "n=" << n << " m=" << m;
      }
      EXPECT_EQ(next, n) << "n=" << n << " m=" << m;
    }
  }
}

TEST(CrRestartPlanTest, GrowMarksOnlyLaterUsersOfASourceFresh) {
  for (const std::size_t n : {1u, 2u, 3u, 5u}) {
    const std::vector<core::InstanceSnapshot> line = source_line(n);
    for (std::size_t m = n + 1; m <= 3 * n + 1; ++m) {
      const core::RestartPlan plan = build_restart_plan(line, m);
      ASSERT_EQ(plan.instances.size(), m);
      std::vector<bool> used(n, false);
      for (std::size_t i = 0; i < m; ++i) {
        const core::InstancePlan& ip = plan.instances[i];
        const std::size_t src = source_of(ip.boot);
        ASSERT_LT(src, n);
        EXPECT_EQ(src, remap_source(i, n, m));
        EXPECT_EQ(ip.boot.instance, i);
        EXPECT_TRUE(ip.attached.empty());
        // The first user of a source keeps its checkpoint image.
        EXPECT_EQ(ip.fresh_image, used[src]) << "n=" << n << " m=" << m
                                             << " i=" << i;
        used[src] = true;
      }
      EXPECT_EQ(std::count(used.begin(), used.end(), true),
                static_cast<std::ptrdiff_t>(n));
    }
  }
}

TEST(CrRestartPlanTest, QcowFullOnlyRestartsAtItsOwnWidth) {
  const std::vector<core::InstanceSnapshot> full =
      source_line(3, Backend::Qcow2Full);
  EXPECT_NO_THROW((void)build_restart_plan(full, 3));
  EXPECT_THROW((void)build_restart_plan(full, 2), CrError);
  EXPECT_THROW((void)build_restart_plan(full, 4), CrError);
  // One full-VM tuple is enough to refuse a rescale of the whole line.
  std::vector<core::InstanceSnapshot> mixed = source_line(3);
  mixed[1].backend = Backend::Qcow2Full;
  EXPECT_THROW((void)build_restart_plan(mixed, 2), CrError);
}

TEST(CrRestartPlanTest, RefusesEmptyLineAndZeroWidth) {
  EXPECT_THROW((void)build_restart_plan({}, 1), CrError);
  EXPECT_THROW((void)build_restart_plan({}, 0), CrError);
  EXPECT_THROW((void)build_restart_plan(source_line(2), 0), CrError);
}

// ---------------------------------------------------------------------------
// Session::restart exception safety: a boot failure mid-restart (injected
// through the deployment's restart probe, crash-harness style) must leave
// the record's tuples intact and the lineage head untouched, so a retry
// from the very same record succeeds bit-exactly.
// ---------------------------------------------------------------------------

TEST(CrElasticTest, RestartBootFailureLeavesRecordRetryable) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  bool threw = false, retried_ok = false;
  std::size_t tuples_after_failure = 0;

  cloud.run([](Cloud* cl, bool* threw, bool* retried_ok,
               std::size_t* tuples) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 2);
    Session session(dep);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 90);
    co_await write_state(&dep.vm(1), 91);
    const CheckpointRecord pre = co_await session.checkpoint("target");
    const CheckpointId head_before = session.lineage_head();

    dep.destroy_all();
    bool armed = true;
    dep.set_restart_probe([&armed](std::size_t) {
      if (armed) {
        armed = false;
        throw std::runtime_error("injected mid-restart boot failure");
      }
    });
    try {
      (void)co_await session.restart(Selector::latest(), 2);
    } catch (const std::runtime_error&) {
      *threw = true;
    }
    EXPECT_EQ(session.lineage_head(), head_before);
    // The catalog record kept its snapshot line through the failure.
    for (const CheckpointRecord& r : co_await session.list()) {
      if (r.id == pre.id) *tuples = r.snapshots.size();
    }

    // Retry from the same record (probe now disarmed): bit-exact restore.
    (void)co_await session.restart(Selector::latest(), 4);
    *retried_ok = (co_await state_matches(&dep.vm(0), 90)) &&
                  (co_await state_matches(&dep.vm(1), 91));
    EXPECT_EQ(session.lineage_head(), pre.id);
  }(&cloud, &threw, &retried_ok, &tuples_after_failure));

  EXPECT_TRUE(threw) << "injected boot failure never surfaced";
  EXPECT_EQ(tuples_after_failure, 2u);
  EXPECT_TRUE(retried_ok);
}

TEST(CrRetentionTest, QcowDiskRetentionRemovesRetiredSnapshotCopies) {
  Cloud cloud(tiny_cfg(Backend::Qcow2Disk));
  std::uint64_t reclaimed = 0;
  std::size_t files_before = 0, files_after = 0;
  bool ok = false;

  cloud.run([](Cloud* cl, std::uint64_t* reclaimed, std::size_t* before,
               std::size_t* after, bool* ok) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    Session::Config scfg;
    scfg.retention.keep_last = 1;
    scfg.auto_retention = false;  // apply explicitly below
    Session session(dep, scfg);
    co_await dep.deploy_and_boot();

    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      co_await write_state(&dep.vm(0), seed);
      (void)co_await session.checkpoint();
    }
    *before = cl->pvfs()->file_count();
    *reclaimed = co_await session.apply_retention();
    *after = cl->pvfs()->file_count();

    dep.destroy_all();
    (void)co_await session.restart(Selector::latest(), 2);
    *ok = co_await state_matches(&dep.vm(0), 3);
  }(&cloud, &reclaimed, &files_before, &files_after, &ok));

  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(files_after + 2, files_before);  // two retired copies removed
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace blobcr::cr
