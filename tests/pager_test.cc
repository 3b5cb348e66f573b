#include "storage/pager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

#include "storage/os_file.h"
#include "util/random.h"

namespace graphbench {
namespace storage {
namespace {

std::unique_ptr<Pager> MustOpen(FileSystem* fs,
                                const PagerOptions& options = {}) {
  auto pager = Pager::Open(fs, "t.db", "t.wal", options);
  EXPECT_TRUE(pager.ok()) << pager.status().ToString();
  return std::move(pager).value();
}

std::string ReadPage(Pager* pager, uint64_t page_id, size_t n) {
  auto page = pager->Fetch(page_id);
  EXPECT_TRUE(page.ok()) << page.status().ToString();
  return std::string(page->data(), n);
}

TEST(PagerTest, AllocateWriteReadBack) {
  MemFileSystem fs;
  auto pager = MustOpen(&fs);
  pager->BeginOp();
  auto page = pager->Allocate();
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->page_id(), 1u);
  page->MarkDirty();
  std::memcpy(page->data(), "hello", 5);
  ASSERT_TRUE(pager->CommitOp().ok());
  EXPECT_EQ(ReadPage(pager.get(), 1, 5), "hello");
  EXPECT_EQ(pager->page_count(), 2u);
}

TEST(PagerTest, AbortRestoresPreImages) {
  MemFileSystem fs;
  auto pager = MustOpen(&fs);
  pager->BeginOp();
  auto page = pager->Allocate();
  ASSERT_TRUE(page.ok());
  page->MarkDirty();
  std::memcpy(page->data(), "committed", 9);
  ASSERT_TRUE(pager->CommitOp().ok());

  pager->BeginOp();
  auto again = pager->Fetch(1);
  ASSERT_TRUE(again.ok());
  again->MarkDirty();
  std::memcpy(again->data(), "scribbled", 9);
  again = PageRef();  // unpin before abort
  pager->AbortOp();
  EXPECT_EQ(ReadPage(pager.get(), 1, 9), "committed");
}

TEST(PagerTest, EvictionFlushesUnderWalRuleAndReloadsValidated) {
  MemFileSystem fs;
  PagerOptions options;
  options.cache_pages = 4;  // tiny pool: every op evicts
  auto pager = MustOpen(&fs, options);
  for (int i = 0; i < 32; ++i) {
    pager->BeginOp();
    auto page = pager->Allocate();
    ASSERT_TRUE(page.ok());
    page->MarkDirty();
    std::string text = "page-" + std::to_string(i);
    std::memcpy(page->data(), text.data(), text.size());
    ASSERT_TRUE(pager->CommitOp().ok());
  }
  // Everything reloads from disk through the checksum check.
  for (int i = 0; i < 32; ++i) {
    std::string expect = "page-" + std::to_string(i);
    EXPECT_EQ(ReadPage(pager.get(), uint64_t(i + 1), expect.size()), expect);
  }
}

TEST(PagerTest, CheckpointThenReopenWithoutWal) {
  MemFileSystem fs;
  {
    auto pager = MustOpen(&fs);
    pager->BeginOp();
    auto page = pager->Allocate();
    ASSERT_TRUE(page.ok());
    page->MarkDirty();
    std::memcpy(page->data(), "persisted", 9);
    ASSERT_TRUE(pager->CommitOp().ok());
    ASSERT_TRUE(pager->Checkpoint().ok());
    EXPECT_EQ(pager->checkpoints_taken(), 1u);
  }
  auto pager = MustOpen(&fs);
  EXPECT_EQ(pager->recovered_records(), 0u);  // WAL was reset
  EXPECT_EQ(ReadPage(pager.get(), 1, 9), "persisted");
}

TEST(PagerTest, ReopenReplaysWalAfterCrash) {
  MemFileSystem fs;
  Rng rng(3);
  {
    auto pager = MustOpen(&fs);
    pager->BeginOp();
    auto page = pager->Allocate();
    ASSERT_TRUE(page.ok());
    page->MarkDirty();
    std::memcpy(page->data(), "logged-not-flushed", 18);
    ASSERT_TRUE(pager->CommitOp().ok());
    ASSERT_TRUE(pager->wal()->Sync().ok());
    // No checkpoint: the db file never saw the page. Crash.
  }
  fs.Crash(&rng);
  auto pager = MustOpen(&fs);
  EXPECT_GT(pager->recovered_records(), 0u);
  EXPECT_EQ(ReadPage(pager.get(), 1, 18), "logged-not-flushed");
}

TEST(PagerTest, RedoIsIdempotentAcrossDoubleRecovery) {
  MemFileSystem fs;
  {
    auto pager = MustOpen(&fs);
    for (int i = 0; i < 3; ++i) {
      pager->BeginOp();
      auto page = i == 0 ? pager->Allocate() : pager->Fetch(1);
      ASSERT_TRUE(page.ok());
      page->MarkDirty();
      std::string text = "round-" + std::to_string(i);
      std::memcpy(page->data(), text.data(), text.size());
      ASSERT_TRUE(pager->CommitOp().ok());
    }
    ASSERT_TRUE(pager->wal()->Sync().ok());
  }
  // Recover twice from the same durable state: same result both times.
  for (int pass = 0; pass < 2; ++pass) {
    auto pager = MustOpen(&fs);
    EXPECT_EQ(ReadPage(pager.get(), 1, 7), "round-2") << "pass " << pass;
  }
}

TEST(PagerTest, CommitUnknownOnWalFsyncFailure) {
  MemFileSystem base;
  FaultOptions fault;
  fault.fail_after_fsyncs = 2;  // header-create sync passes, commit fails
  FaultFileSystem fs(&base, fault, ".wal");
  PagerOptions options;
  options.fsync_on_commit = true;
  auto opened = Pager::Open(&fs, "t.db", "t.wal", options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& pager = *opened;
  pager->BeginOp();
  auto page = pager->Allocate();
  ASSERT_TRUE(page.ok());
  page->MarkDirty();
  std::memcpy(page->data(), "x", 1);
  page = PageRef();
  Status commit = pager->CommitOp();
  EXPECT_FALSE(commit.ok());  // commit-unknown surfaces as failure
  // The in-memory state still reflects the write (WAL-covered).
  EXPECT_EQ(ReadPage(pager.get(), 1, 1), "x");
}

// A checkpoint that fails at or after the header write leaves the
// published generation ambiguous: if the unsynced new-generation header
// lands in the crash, recovery rejects the still-active old-salt WAL. A
// commit appended (and acked) after that point would be silently
// dropped, so the pager must refuse commits from the failure onward.
TEST(PagerTest, CheckpointFailureAfterHeaderPublishDegradesPager) {
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    MemFileSystem base;
    FaultOptions fault;
    // db-file syncs: #1 create-header, #2 the checkpoint's pre-header
    // flush barrier, #3 the post-header-publish sync. Fail from #3 on.
    fault.fail_after_fsyncs = 3;
    FaultFileSystem fs(&base, fault, ".db");
    PagerOptions options;
    options.fsync_on_commit = true;
    auto opened = Pager::Open(&fs, "t.db", "t.wal", options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& pager = *opened;
    pager->BeginOp();
    auto page = pager->Allocate();
    ASSERT_TRUE(page.ok());
    page->MarkDirty();
    std::memcpy(page->data(), "acked", 5);
    page = PageRef();
    ASSERT_TRUE(pager->CommitOp().ok());

    EXPECT_FALSE(pager->Checkpoint().ok());

    // Degraded: later commits are refused (and rolled back in memory),
    // as are further checkpoints.
    pager->BeginOp();
    page = pager->Fetch(1);
    ASSERT_TRUE(page.ok());
    page->MarkDirty();
    std::memcpy(page->data(), "late!", 5);
    page = PageRef();
    EXPECT_FALSE(pager->CommitOp().ok());
    EXPECT_EQ(ReadPage(pager.get(), 1, 5), "acked");
    EXPECT_FALSE(pager->Checkpoint().ok());
    pager.reset();

    // Whichever way the crash resolves the ambiguous header write, the
    // acked pre-checkpoint commit must survive recovery.
    base.Crash(&rng);
    auto reopened = Pager::Open(&base, "t.db", "t.wal", options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(ReadPage(reopened->get(), 1, 5), "acked")
        << "trial " << trial;
  }
}

// An op that rewrites identical bytes logs no record, but under
// fsync-per-commit it must not ack while the record that actually put
// those bytes there is still unsynced (commit-unknown): an OK would
// promise durability a crash can break.
TEST(PagerTest, NoChangeCommitStillHonorsFsyncContract) {
  MemFileSystem base;
  FaultOptions fault;
  fault.fail_after_fsyncs = 2;  // wal create's sync passes; later fail
  FaultFileSystem fs(&base, fault, ".wal");
  PagerOptions options;
  options.fsync_on_commit = true;
  auto opened = Pager::Open(&fs, "t.db", "t.wal", options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& pager = *opened;

  // Appended but the fsync fails: commit-unknown, state stands.
  pager->BeginOp();
  auto page = pager->Allocate();
  ASSERT_TRUE(page.ok());
  page->MarkDirty();
  std::memcpy(page->data(), "maybe", 5);
  page = PageRef();
  EXPECT_FALSE(pager->CommitOp().ok());

  // Identical rewrite: nothing to log, but the covering record is still
  // unsynced — the commit must retry the fsync and report its failure.
  pager->BeginOp();
  page = pager->Fetch(1);
  ASSERT_TRUE(page.ok());
  page->MarkDirty();
  std::memcpy(page->data(), "maybe", 5);
  page = PageRef();
  EXPECT_FALSE(pager->CommitOp().ok());
}

TEST(PagerTest, TornPageRepairedByFullPageImage) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    MemFileSystem trial_fs;
    {
      auto pager = MustOpen(&trial_fs);
      // Two commits to the same page: image + delta in the WAL.
      pager->BeginOp();
      auto page = pager->Allocate();
      ASSERT_TRUE(page.ok());
      page->MarkDirty();
      std::string fill(kPageDataSize, 'A');
      std::memcpy(page->data(), fill.data(), fill.size());
      page = PageRef();
      ASSERT_TRUE(pager->CommitOp().ok());
      pager->BeginOp();
      page = pager->Fetch(1);
      ASSERT_TRUE(page.ok());
      page->MarkDirty();
      std::memcpy(page->data(), "BB", 2);
      page = PageRef();
      ASSERT_TRUE(pager->CommitOp().ok());
      ASSERT_TRUE(pager->wal()->Sync().ok());
      // Flush the page so the db file write itself can tear in the crash.
      ASSERT_TRUE(pager->Checkpoint().ok());
      pager->BeginOp();
      page = pager->Fetch(1);
      ASSERT_TRUE(page.ok());
      page->MarkDirty();
      std::memcpy(page->data(), "CC", 2);
      page = PageRef();
      ASSERT_TRUE(pager->CommitOp().ok());
      ASSERT_TRUE(pager->wal()->Sync().ok());
    }
    trial_fs.Crash(&rng);
    auto pager = MustOpen(&trial_fs);
    std::string head = ReadPage(pager.get(), 1, 2);
    std::string tail = ReadPage(pager.get(), 1, kPageDataSize);
    EXPECT_EQ(head, "CC") << "trial " << trial;
    EXPECT_EQ(tail.substr(2), std::string(kPageDataSize - 2, 'A'));
  }
}

// A page allocated since the last checkpoint is first logged as "starts as
// zeros" plus its changed runs, not as a full image. Replay must rebuild it
// byte for byte whatever the db file holds at its offset: a flush torn by
// the crash, or (the second half) a checksum-valid page some other store
// left there, which a replay that skipped the zero-page record would keep.
TEST(PagerTest, BornPageRebuiltFromZeroPageRecord) {
  std::string want(kPageDataSize, '\0');
  for (size_t off = 0; off < kPageDataSize; off += 300) {
    std::memcpy(&want[off], "born", 4);
  }
  // Writes `want` into a freshly allocated page 1 and logs it; then, when
  // `flush`, evicts it from the 2-page pool, which writes it to the db
  // file; and syncs the log.
  auto write_born_page = [&want](Pager* pager, bool flush) {
    pager->BeginOp();
    auto page = pager->Allocate();
    ASSERT_TRUE(page.ok());
    ASSERT_EQ(page->page_id(), 1u);
    page->MarkDirty();
    std::memcpy(page->data(), want.data(), kPageDataSize);
    page = PageRef();
    uint64_t before = pager->wal()->log_bytes();
    ASSERT_TRUE(pager->CommitOp().ok());
    // Zero-page record plus 14 short runs: far less than an image.
    EXPECT_LT(pager->wal()->log_bytes() - before, 400u);
    for (int i = 0; flush && i < 2; ++i) {
      pager->BeginOp();
      auto other = pager->Allocate();
      ASSERT_TRUE(other.ok());
      other->MarkDirty(0, 8);
      std::memcpy(other->data(), "evicting", 8);
      other = PageRef();
      ASSERT_TRUE(pager->CommitOp().ok());
    }
    ASSERT_TRUE(pager->wal()->Sync().ok());
  };
  PagerOptions options;
  options.cache_pages = 2;
  Rng rng(61);
  for (int trial = 0; trial < 20; ++trial) {
    MemFileSystem fs;
    {
      auto pager = MustOpen(&fs, options);
      write_born_page(pager.get(), /*flush=*/true);
    }
    fs.Crash(&rng);  // the db file's page 1 is kept, torn or dropped
    auto pager = MustOpen(&fs, options);
    EXPECT_TRUE(ReadPage(pager.get(), 1, kPageDataSize) == want)
        << "trial " << trial;
  }

  // A sealed page of other bytes at page 1's offset before it is born.
  MemFileSystem other_fs;
  {
    auto other = MustOpen(&other_fs);
    other->BeginOp();
    auto page = other->Allocate();
    ASSERT_TRUE(page.ok());
    page->MarkDirty();
    std::memset(page->data(), 's', kPageDataSize);
    page = PageRef();
    ASSERT_TRUE(other->CommitOp().ok());
    ASSERT_TRUE(other->Checkpoint().ok());
  }
  std::string stale =
      other_fs.Materialize("t.db").substr(kPageSize, kPageSize);
  MemFileSystem fs;
  {
    auto pager = MustOpen(&fs, options);
    auto db = fs.Open("t.db");
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->WriteAt(kPageSize, stale).ok());
    ASSERT_TRUE((*db)->Sync().ok());
    write_born_page(pager.get(), /*flush=*/false);
  }
  auto pager = MustOpen(&fs, options);
  EXPECT_TRUE(ReadPage(pager.get(), 1, kPageDataSize) == want);
}

// One op changing both ends of a page logs one delta per changed run, in
// one record. Recovery must apply every run: the first one stamps the page
// with the record's LSN, and the gate must still admit the second.
TEST(PagerTest, MultiRunDeltaReplaysEveryRun) {
  MemFileSystem fs;
  {
    auto pager = MustOpen(&fs);
    pager->BeginOp();
    auto page = pager->Allocate();
    ASSERT_TRUE(page.ok());
    page->MarkDirty();
    std::memset(page->data(), 'A', kPageDataSize);
    page = PageRef();
    ASSERT_TRUE(pager->CommitOp().ok());  // first touch: full image

    uint64_t before = pager->wal()->log_bytes();
    pager->BeginOp();
    page = pager->Fetch(1);
    ASSERT_TRUE(page.ok());
    page->MarkDirty();
    std::memcpy(page->data(), "head", 4);
    std::memcpy(page->data() + kPageDataSize - 4, "tail", 4);
    page = PageRef();
    ASSERT_TRUE(pager->CommitOp().ok());
    // Two short runs, not one delta spanning the page.
    EXPECT_LT(pager->wal()->log_bytes() - before, 100u);
    ASSERT_TRUE(pager->wal()->Sync().ok());
  }
  Rng rng(5);
  fs.Crash(&rng);
  for (int pass = 0; pass < 2; ++pass) {
    auto pager = MustOpen(&fs);
    std::string page = ReadPage(pager.get(), 1, kPageDataSize);
    EXPECT_EQ(page.substr(0, 4), "head") << "pass " << pass;
    EXPECT_EQ(page.substr(kPageDataSize - 4), "tail") << "pass " << pass;
    EXPECT_EQ(page.substr(4, kPageDataSize - 8),
              std::string(kPageDataSize - 8, 'A'))
        << "pass " << pass;
  }
}

// Writes `len` bytes at `off` of `page`, declaring them first: just that
// range when `tight`, else the whole page. One time in five the bytes
// written are the ones already there (a write that changes nothing).
void DeclareAndWrite(PageRef* page, bool tight, size_t off, size_t len,
                     Rng* rng) {
  if (tight) {
    page->MarkDirty(off, len);
  } else {
    page->MarkDirty();
  }
  if (rng->Uniform(5) == 0) return;
  for (size_t i = 0; i < len; ++i) page->data()[off + i] = char(rng->Next());
}

// Tight and whole-page declarations of the same writes must log the same
// bytes: declared ranges are merged so that a range-by-range diff finds
// exactly the runs of a whole-page diff. The stream mixes short and long
// writes, overlapping, adjacent and re-declared ones, ops with more ranges
// than a frame keeps (which widen), ops whose runs cost more than an
// image, unchanged rewrites, aborts, checkpoints and evictions.
TEST(PagerTest, TightAndWholePageDeclarationsLogTheSameBytes) {
  MemFileSystem tight_fs, whole_fs;
  PagerOptions options;
  options.cache_pages = 8;
  auto tight = MustOpen(&tight_fs, options);
  auto whole = MustOpen(&whole_fs, options);
  constexpr uint64_t kPages = 12;
  Rng stream(29);
  for (int op = 0; op < 800; ++op) {
    uint64_t seed = stream.Next();
    for (Pager* pager : {tight.get(), whole.get()}) {
      bool is_tight = pager == tight.get();
      Rng rng(seed);
      pager->BeginOp();
      int pages = 1 + int(rng.Uniform(3));
      for (int p = 0; p < pages; ++p) {
        auto page = pager->page_count() <= kPages
                        ? pager->Allocate()
                        : pager->Fetch(1 + rng.Uniform(kPages));
        ASSERT_TRUE(page.ok()) << page.status().ToString();
        size_t writes = rng.Uniform(6) == 0 ? 9 + rng.Uniform(40)
                                            : 1 + rng.Uniform(4);
        size_t last_end = 0;
        for (size_t w = 0; w < writes; ++w) {
          size_t off;
          switch (rng.Uniform(4)) {
            case 0:  // adjacent to, or just past, the previous write
              off = std::min(kPageDataSize - 1, last_end + rng.Uniform(24));
              break;
            case 1:  // near the page's ends
              off = rng.Uniform(2) ? rng.Uniform(16)
                                   : kPageDataSize - 1 - rng.Uniform(16);
              break;
            default:
              off = rng.Uniform(kPageDataSize);
          }
          size_t len = rng.Uniform(8) == 0 ? 1 + rng.Uniform(600)
                                           : 1 + rng.Uniform(20);
          len = std::min(len, kPageDataSize - off);
          DeclareAndWrite(&*page, is_tight, off, len, &rng);
          last_end = off + len;
        }
      }
      if (rng.Uniform(10) == 0) {
        pager->AbortOp();
      } else {
        ASSERT_TRUE(pager->CommitOp().ok());
      }
    }
    if (op % 200 == 199) {
      ASSERT_TRUE(tight->Checkpoint().ok());
      ASSERT_TRUE(whole->Checkpoint().ok());
    }
  }
  EXPECT_GT(tight->wal()->log_bytes(), 0u);
  EXPECT_EQ(tight->wal()->log_bytes(), whole->wal()->log_bytes());
  EXPECT_TRUE(tight_fs.Materialize("t.wal") == whole_fs.Materialize("t.wal"));
  EXPECT_TRUE(tight_fs.Materialize("t.db") == whole_fs.Materialize("t.db"));
}

// AbortOp puts back exactly the declared bytes as they were before the op,
// whatever order the op declared and wrote them in: a range re-declared
// after it was written keeps its first snapshot.
TEST(PagerTest, AbortRestoresExactlyTheDeclaredBytes) {
  MemFileSystem fs;
  auto pager = MustOpen(&fs);
  std::string original(kPageDataSize, '\0');
  for (size_t i = 0; i < kPageDataSize; ++i) original[i] = char(i * 7 % 251);
  pager->BeginOp();
  {
    auto page = pager->Allocate();
    ASSERT_TRUE(page.ok());
    page->MarkDirty();
    std::memcpy(page->data(), original.data(), kPageDataSize);
  }
  ASSERT_TRUE(pager->CommitOp().ok());

  pager->BeginOp();
  {
    auto page = pager->Fetch(1);
    ASSERT_TRUE(page.ok());
    char* p = page->data();
    page->MarkDirty(100, 20);
    std::memset(p + 100, 'a', 20);
    page->MarkDirty(90, 40);  // overlaps the written range
    std::memset(p + 90, 'b', 40);
    page->MarkDirty(130, 8);  // adjacent
    std::memset(p + 130, 'c', 8);
    page->MarkDirty(100, 20);  // re-declared
    std::memset(p + 100, 'd', 20);
    // More scattered ranges than a frame keeps: the closest ones merge.
    for (size_t off = 1000; off < 2400; off += 100) {
      page->MarkDirty(off, 3);
      std::memset(p + off, 'e', 3);
    }
    page->MarkDirty(kPageDataSize - 5, 5);
    std::memset(p + kPageDataSize - 5, 'f', 5);
    // Outside every declared range (against the contract): abort leaves
    // it, which shows the restore copies the declared ranges only.
    p[3500] = 'x';
  }
  pager->AbortOp();
  std::string want = original;
  want[3500] = 'x';
  EXPECT_TRUE(ReadPage(pager.get(), 1, kPageDataSize) == want);

  // Random declarations, each written right after it is made. Each trial
  // first commits fresh page contents, so the pooled pre-image buffer
  // holds stale bytes that differ from the page's.
  Rng rng(71);
  for (int trial = 0; trial < 300; ++trial) {
    pager->BeginOp();
    auto page = pager->Fetch(1);
    ASSERT_TRUE(page.ok());
    page->MarkDirty();
    for (size_t i = 0; i < kPageDataSize; ++i) {
      page->data()[i] = char(rng.Next());
    }
    ASSERT_TRUE(pager->CommitOp().ok());
    std::string before(page->data(), kPageDataSize);
    pager->BeginOp();
    int declarations = 1 + int(rng.Uniform(20));
    for (int d = 0; d < declarations; ++d) {
      size_t off = rng.Uniform(kPageDataSize);
      size_t len = std::min<size_t>(1 + rng.Uniform(rng.Uniform(4) ? 24 : 400),
                                    kPageDataSize - off);
      page->MarkDirty(off, len);
      for (size_t i = 0; i < len; ++i) {
        page->data()[off + i] = char(rng.Next());
      }
    }
    page = PageRef();
    pager->AbortOp();
    ASSERT_TRUE(ReadPage(pager.get(), 1, kPageDataSize) == before)
        << "trial " << trial;
  }
}

TEST(OverflowChainTest, RoundTripsAcrossPages) {
  MemFileSystem fs;
  auto pager = MustOpen(&fs);
  std::string big(kPageDataSize * 2 + 100, 'q');
  for (size_t i = 0; i < big.size(); ++i) big[i] = char('0' + i % 10);
  pager->BeginOp();
  auto first = WriteOverflowChain(pager.get(), big);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(pager->CommitOp().ok());
  auto read = ReadOverflowChain(pager.get(), *first, big.size());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, big);
}

}  // namespace
}  // namespace storage
}  // namespace graphbench
