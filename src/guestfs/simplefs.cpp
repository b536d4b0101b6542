#include "guestfs/simplefs.h"

#include <algorithm>
#include <cassert>

#include "common/codec.h"
#include "common/strutil.h"

namespace blobcr::guestfs {

namespace {
constexpr std::uint64_t kMagic = 0xb10bc2f5'0001ULL;

std::vector<std::string> path_parts(const std::string& path) {
  std::vector<std::string> parts;
  for (const std::string& p : common::split(path, '/')) {
    if (!p.empty()) parts.push_back(p);
  }
  return parts;
}

std::uint64_t align_up(std::uint64_t v, std::uint64_t align) {
  return (v + align - 1) / align * align;
}
}  // namespace

sim::Task<> SimpleFs::mkfs(img::BlockDevice& dev, FsConfig cfg) {
  SimpleFs fs(dev);
  fs.cfg_ = cfg;
  fs.total_blocks_ = dev.capacity() / cfg.block_size;
  const std::uint64_t meta_end_bytes =
      (1ULL + cfg.metadata_blocks) * cfg.block_size;
  fs.data_start_ =
      align_up(meta_end_bytes, cfg.region_align_bytes) / cfg.block_size;
  if (fs.data_start_ >= fs.total_blocks_) throw FsError("device too small");
  fs.next_fit_ = fs.data_start_;
  fs.scatter_rng_ = common::Rng(cfg.scatter_seed);

  Inode root;
  root.ino = 1;
  root.dir = true;
  fs.inodes_[1] = std::move(root);
  fs.meta_dirty_ = true;
  co_await fs.sync();
}

sim::Task<std::unique_ptr<SimpleFs>> SimpleFs::mount(img::BlockDevice& dev) {
  auto fs = std::unique_ptr<SimpleFs>(new SimpleFs(dev));
  // Superblock.
  common::Buffer sb = co_await dev.read(0, 4096);
  common::ByteReader r(sb);
  if (r.u64() != kMagic) throw FsError("bad superblock magic");
  fs->cfg_.block_size = r.u32();
  fs->cfg_.metadata_blocks = r.u32();
  fs->cfg_.region_align_bytes = r.u64();
  fs->cfg_.alloc_scatter_blocks = r.u32();
  fs->cfg_.scatter_seed = r.u64();
  fs->total_blocks_ = r.u64();
  fs->data_start_ = r.u64();
  const std::uint64_t meta_len = r.u64();
  fs->scatter_rng_ = common::Rng(fs->cfg_.scatter_seed);
  fs->next_fit_ = fs->data_start_;

  if (meta_len > 0) {
    common::Buffer blob =
        co_await dev.read(fs->cfg_.block_size, meta_len);
    fs->decode_metadata(blob);
  }
  co_return fs;
}

common::Buffer SimpleFs::encode_metadata() const {
  common::ByteWriter w;
  w.u32(next_ino_);
  w.u32(static_cast<std::uint32_t>(inodes_.size()));
  for (const auto& [ino, node] : inodes_) {
    w.u32(node.ino);
    w.u8(node.dir ? 1 : 0);
    w.u64(node.size);
    w.u32(static_cast<std::uint32_t>(node.extents.size()));
    for (const common::Range& e : node.extents) {
      w.u64(e.begin);
      w.u64(e.end);
    }
    w.u32(static_cast<std::uint32_t>(node.entries.size()));
    for (const auto& [name, child] : node.entries) {
      w.str(name);
      w.u32(child);
    }
  }
  const auto allocated = allocated_.to_vector();
  w.u32(static_cast<std::uint32_t>(allocated.size()));
  for (const common::Range& a : allocated) {
    w.u64(a.begin);
    w.u64(a.end);
  }
  return const_cast<common::ByteWriter&>(w).take();
}

void SimpleFs::decode_metadata(const common::Buffer& blob) {
  common::ByteReader r(blob);
  next_ino_ = r.u32();
  const std::uint32_t n_inodes = r.u32();
  inodes_.clear();
  for (std::uint32_t i = 0; i < n_inodes; ++i) {
    Inode node;
    node.ino = r.u32();
    node.dir = (r.u8() != 0);
    node.size = r.u64();
    const std::uint32_t n_ext = r.u32();
    for (std::uint32_t e = 0; e < n_ext; ++e) {
      const std::uint64_t begin = r.u64();
      const std::uint64_t end = r.u64();
      node.extents.push_back({begin, end});
    }
    const std::uint32_t n_ent = r.u32();
    for (std::uint32_t e = 0; e < n_ent; ++e) {
      std::string name = r.str();
      const Ino child = r.u32();
      node.entries[std::move(name)] = child;
    }
    inodes_[node.ino] = std::move(node);
  }
  allocated_.clear();
  const std::uint32_t n_alloc = r.u32();
  for (std::uint32_t i = 0; i < n_alloc; ++i) {
    const std::uint64_t begin = r.u64();
    const std::uint64_t end = r.u64();
    allocated_.insert(begin, end);
  }
}

// --- namespace ---------------------------------------------------------------

SimpleFs::Inode* SimpleFs::resolve(const std::string& path) {
  Inode* cur = &inodes_.at(1);
  for (const std::string& part : path_parts(path)) {
    if (!cur->dir) return nullptr;
    const auto it = cur->entries.find(part);
    if (it == cur->entries.end()) return nullptr;
    cur = &inodes_.at(it->second);
  }
  return cur;
}

const SimpleFs::Inode* SimpleFs::resolve(const std::string& path) const {
  return const_cast<SimpleFs*>(this)->resolve(path);
}

std::pair<SimpleFs::Inode*, std::string> SimpleFs::resolve_parent(
    const std::string& path) {
  auto parts = path_parts(path);
  if (parts.empty()) throw FsError("bad path: " + path);
  const std::string leaf = parts.back();
  parts.pop_back();
  Inode* cur = &inodes_.at(1);
  for (const std::string& part : parts) {
    if (!cur->dir) throw FsError("not a directory in: " + path);
    const auto it = cur->entries.find(part);
    if (it == cur->entries.end())
      throw FsError("no such directory in: " + path);
    cur = &inodes_.at(it->second);
  }
  if (!cur->dir) throw FsError("not a directory: " + path);
  return {cur, leaf};
}

bool SimpleFs::exists(const std::string& path) const {
  return resolve(path) != nullptr;
}

FileStat SimpleFs::stat(const std::string& path) const {
  const Inode* node = resolve(path);
  if (node == nullptr) throw FsError("no such file: " + path);
  return FileStat{node->ino, node->dir, node->size, node->extents.size()};
}

void SimpleFs::mkdir(const std::string& path) {
  auto [parent, leaf] = resolve_parent(path);
  if (parent->entries.count(leaf) != 0) throw FsError("exists: " + path);
  Inode node;
  node.ino = next_ino_++;
  node.dir = true;
  parent->entries[leaf] = node.ino;
  inodes_[node.ino] = std::move(node);
  meta_dirty_ = true;
}

std::vector<std::string> SimpleFs::readdir(const std::string& path) const {
  const Inode* node = resolve(path);
  if (node == nullptr || !node->dir) throw FsError("not a directory: " + path);
  std::vector<std::string> names;
  names.reserve(node->entries.size());
  for (const auto& [name, ino] : node->entries) names.push_back(name);
  return names;
}

void SimpleFs::unlink(const std::string& path) {
  auto [parent, leaf] = resolve_parent(path);
  const auto it = parent->entries.find(leaf);
  if (it == parent->entries.end()) throw FsError("no such file: " + path);
  Inode& node = inodes_.at(it->second);
  if (node.dir && !node.entries.empty()) throw FsError("directory not empty");
  free_blocks(node);
  inodes_.erase(node.ino);
  parent->entries.erase(it);
  meta_dirty_ = true;
}

Fd SimpleFs::open(const std::string& path, bool create, bool append_mode) {
  Inode* node = resolve(path);
  if (node == nullptr) {
    if (!create) throw FsError("no such file: " + path);
    auto [parent, leaf] = resolve_parent(path);
    Inode fresh;
    fresh.ino = next_ino_++;
    parent->entries[leaf] = fresh.ino;
    const Ino ino = fresh.ino;
    inodes_[ino] = std::move(fresh);
    node = &inodes_.at(ino);
    meta_dirty_ = true;
    // Scatter the allocation cursor like block-group placement would.
    if (cfg_.alloc_scatter_blocks > 0) {
      next_fit_ = data_start_ +
                  (next_fit_ - data_start_ +
                   scatter_rng_.uniform(cfg_.alloc_scatter_blocks)) %
                      std::max<std::uint64_t>(1, total_blocks_ - data_start_);
    }
  }
  if (node->dir) throw FsError("is a directory: " + path);
  const Fd fd = next_fd_++;
  fds_[fd] = OpenFile{node->ino, append_mode ? node->size : 0};
  return fd;
}

void SimpleFs::close(Fd fd) { fds_.erase(fd); }

std::uint64_t SimpleFs::file_size(Fd fd) const {
  return inodes_.at(fds_.at(fd).ino).size;
}

// --- allocation ----------------------------------------------------------------

std::uint64_t SimpleFs::allocate_block() {
  const std::uint64_t span = total_blocks_ - data_start_;
  for (std::uint64_t probe = 0; probe < span; ++probe) {
    std::uint64_t b = next_fit_ + probe;
    if (b >= total_blocks_) b = data_start_ + (b - total_blocks_);
    if (!allocated_.intersects(b, b + 1)) {
      allocated_.insert(b, b + 1);
      next_fit_ = b + 1 >= total_blocks_ ? data_start_ : b + 1;
      return b;
    }
  }
  throw FsError("file system full");
}

void SimpleFs::ensure_blocks(Inode& ino, std::uint64_t blocks) {
  while (ino.blocks() < blocks) {
    std::uint64_t need = blocks - ino.blocks();
    // Extent-based allocation (ext4-style): large requests search for a
    // contiguous free run at/after the cursor instead of filling small
    // holes left by scattered small files.
    if (need > 8) {
      const std::optional<common::Range> chosen =
          allocated_.fit_gap(data_start_, total_blocks_, next_fit_, need);
      if (!chosen) throw FsError("file system full");
      const std::uint64_t from = std::max(chosen->begin, next_fit_);
      const std::uint64_t begin =
          from + need <= chosen->end ? from : chosen->begin;
      const std::uint64_t take = std::min(need, chosen->end - begin);
      allocated_.insert(begin, begin + take);
      next_fit_ = begin + take >= total_blocks_ ? data_start_ : begin + take;
      if (!ino.extents.empty() && ino.extents.back().end == begin) {
        ino.extents.back().end = begin + take;
      } else {
        ino.extents.push_back({begin, begin + take});
      }
      meta_dirty_ = true;
      continue;
    }
    const std::uint64_t b = allocate_block();
    if (!ino.extents.empty() && ino.extents.back().end == b) {
      ino.extents.back().end = b + 1;  // grow the tail extent
    } else {
      ino.extents.push_back({b, b + 1});
    }
    meta_dirty_ = true;
  }
}

void SimpleFs::free_blocks(Inode& ino) {
  for (const common::Range& e : ino.extents) {
    allocated_.erase(e.begin, e.end);
    dirty_blocks_.erase(e.begin, e.end);
    for (std::uint64_t b = e.begin; b < e.end; ++b) pages_.erase(b);
  }
  ino.extents.clear();
  ino.size = 0;
  meta_dirty_ = true;
}

std::uint64_t SimpleFs::physical_block(const Inode& ino,
                                       std::uint64_t logical_block) const {
  std::uint64_t remaining = logical_block;
  for (const common::Range& e : ino.extents) {
    if (remaining < e.length()) return e.begin + remaining;
    remaining -= e.length();
  }
  throw FsError("logical block out of range");
}

// --- data path -------------------------------------------------------------------

sim::Task<common::Buffer> SimpleFs::load_block(std::uint64_t block) {
  const auto it = pages_.find(block);
  if (it != pages_.end()) co_return it->second;
  common::Buffer page =
      co_await dev_->read(block * cfg_.block_size, cfg_.block_size);
  if (page.size() < cfg_.block_size && !page.is_phantom())
    page.resize(cfg_.block_size);
  pages_[block] = page;
  co_return page;
}

sim::Task<> SimpleFs::pwrite(Fd fd, std::uint64_t offset,
                             common::Buffer data) {
  const std::uint64_t bs = cfg_.block_size;
  Inode& node = inodes_.at(fds_.at(fd).ino);
  const std::uint64_t len = data.size();
  if (len == 0) co_return;
  const std::uint64_t old_size = node.size;
  ensure_blocks(node, (offset + len + bs - 1) / bs);

  for (std::uint64_t pos = offset; pos < offset + len;) {
    const std::uint64_t lblock = pos / bs;
    const std::uint64_t within = pos - lblock * bs;
    const std::uint64_t piece = std::min(bs - within, offset + len - pos);
    const std::uint64_t pblock = physical_block(node, lblock);
    if (within == 0 && piece == bs) {
      pages_[pblock] = data.slice(pos - offset, bs);
    } else {
      common::Buffer page;
      const bool had_content = lblock * bs < old_size;
      if (had_content) {
        page = co_await load_block(pblock);
      } else {
        page = common::Buffer::zeros(bs);
      }
      if (page.size() < bs) page.resize(bs);
      page.overwrite(within, data.slice(pos - offset, piece));
      pages_[pblock] = std::move(page);
    }
    dirty_blocks_.insert(pblock, pblock + 1);
    pos += piece;
  }
  if (offset + len > node.size) {
    node.size = offset + len;
    meta_dirty_ = true;
  }
}

sim::Task<> SimpleFs::write(Fd fd, common::Buffer data) {
  const std::uint64_t at = fds_.at(fd).cursor;
  const std::uint64_t n = data.size();
  co_await pwrite(fd, at, std::move(data));
  fds_.at(fd).cursor = at + n;
}

sim::Task<common::Buffer> SimpleFs::pread(Fd fd, std::uint64_t offset,
                                          std::uint64_t len) {
  const std::uint64_t bs = cfg_.block_size;
  const Inode& node = inodes_.at(fds_.at(fd).ino);
  if (offset >= node.size) co_return common::Buffer();
  len = std::min(len, node.size - offset);

  // Pass 1: populate the page cache with batched device reads — one read
  // per physically-contiguous run of uncached blocks (large files are laid
  // out in few extents, so a big read costs a handful of device ops, not
  // one per 4 KiB block).
  const std::uint64_t lb_first = offset / bs;
  const std::uint64_t lb_last = (offset + len + bs - 1) / bs;
  std::uint64_t logical_base = 0;
  for (const common::Range& e : node.extents) {
    const std::uint64_t e_blocks = e.length();
    const std::uint64_t lo = std::max(lb_first, logical_base);
    const std::uint64_t hi = std::min(lb_last, logical_base + e_blocks);
    if (lo < hi) {
      const std::uint64_t p0 = e.begin + (lo - logical_base);
      const std::uint64_t count = hi - lo;
      std::uint64_t i = 0;
      while (i < count) {
        if (pages_.find(p0 + i) != pages_.end()) {
          ++i;
          continue;
        }
        std::uint64_t j = i + 1;
        while (j < count && pages_.find(p0 + j) == pages_.end()) ++j;
        common::Buffer run =
            co_await dev_->read((p0 + i) * bs, (j - i) * bs);
        if (run.size() < (j - i) * bs) run.resize((j - i) * bs);
        for (std::uint64_t k = i; k < j; ++k) {
          pages_[p0 + k] = run.slice((k - i) * bs, bs);
        }
        i = j;
      }
    }
    logical_base += e_blocks;
    if (logical_base >= lb_last) break;
  }

  // Pass 2: assemble from the (now warm) page cache.
  common::Buffer out;
  for (std::uint64_t pos = offset; pos < offset + len;) {
    const std::uint64_t lblock = pos / bs;
    const std::uint64_t within = pos - lblock * bs;
    const std::uint64_t piece = std::min(bs - within, offset + len - pos);
    const std::uint64_t pblock = physical_block(node, lblock);
    common::Buffer& page = pages_.at(pblock);
    if (page.size() < within + piece) page.resize(within + piece);
    out.append(page.slice(within, piece));
    pos += piece;
  }
  co_return out;
}

sim::Task<common::Buffer> SimpleFs::read(Fd fd, std::uint64_t len) {
  const std::uint64_t at = fds_.at(fd).cursor;
  common::Buffer out = co_await pread(fd, at, len);
  fds_.at(fd).cursor = at + out.size();
  co_return out;
}

sim::Task<> SimpleFs::write_file(const std::string& path,
                                 common::Buffer data) {
  const Fd fd = open(path, /*create=*/true);
  Inode& node = inodes_.at(fds_.at(fd).ino);
  if (node.size > 0) free_blocks(node);  // truncate
  co_await pwrite(fd, 0, std::move(data));
  close(fd);
}

sim::Task<common::Buffer> SimpleFs::read_file(const std::string& path) {
  const Fd fd = open(path);
  common::Buffer out = co_await pread(fd, 0, file_size(fd));
  close(fd);
  co_return out;
}

sim::Task<> SimpleFs::flush_dirty_pages() {
  // Coalesce adjacent dirty blocks into single device writes; piecewise
  // buffers keep real and phantom pages distinct within one write.
  const auto ranges = dirty_blocks_.to_vector();
  dirty_blocks_.clear();
  const std::uint64_t bs = cfg_.block_size;
  for (const common::Range& r : ranges) {
    common::Buffer run;
    for (std::uint64_t b = r.begin; b < r.end; ++b) {
      common::Buffer page = pages_.at(b);
      if (page.size() < bs) page.resize(bs);
      run.append(page);
    }
    co_await dev_->write(r.begin * bs, std::move(run));
  }
}

sim::Task<> SimpleFs::sync() {
  co_await flush_dirty_pages();
  if (meta_dirty_) {
    common::Buffer blob = encode_metadata();
    if (blob.size() > static_cast<std::uint64_t>(cfg_.metadata_blocks) *
                          cfg_.block_size) {
      throw FsError("metadata region overflow");
    }
    common::ByteWriter sb;
    sb.u64(kMagic);
    sb.u32(cfg_.block_size);
    sb.u32(cfg_.metadata_blocks);
    sb.u64(cfg_.region_align_bytes);
    sb.u32(cfg_.alloc_scatter_blocks);
    sb.u64(cfg_.scatter_seed);
    sb.u64(total_blocks_);
    sb.u64(data_start_);
    sb.u64(blob.size());
    common::Buffer sb_block = sb.take();
    sb_block.resize(cfg_.block_size);
    co_await dev_->write(0, std::move(sb_block));
    co_await dev_->write(cfg_.block_size, std::move(blob));
    meta_dirty_ = false;
  }
  co_await dev_->flush();
}

}  // namespace blobcr::guestfs
